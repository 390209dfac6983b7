#include "data/synthetic.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/dataset_view.h"
#include "data/paper_datasets.h"

namespace bhpo {
namespace {

TEST(MakeBlobsTest, ShapeAndBalance) {
  BlobsSpec spec;
  spec.n = 300;
  spec.num_features = 5;
  spec.num_classes = 3;
  spec.seed = 1;
  Dataset d = MakeBlobs(spec).value();
  EXPECT_EQ(d.n(), 300u);
  EXPECT_EQ(d.num_features(), 5u);
  EXPECT_EQ(d.num_classes(), 3);
  for (size_t c : DatasetView(d).ClassCounts()) EXPECT_EQ(c, 100u);
}

TEST(MakeBlobsTest, ClassWeightsRespected) {
  BlobsSpec spec;
  spec.n = 1000;
  spec.num_classes = 2;
  spec.class_weights = {0.9, 0.1};
  spec.seed = 2;
  Dataset d = MakeBlobs(spec).value();
  std::vector<size_t> counts = DatasetView(d).ClassCounts();
  EXPECT_EQ(counts[0], 900u);
  EXPECT_EQ(counts[1], 100u);
}

TEST(MakeBlobsTest, Deterministic) {
  BlobsSpec spec;
  spec.n = 50;
  spec.seed = 3;
  Dataset a = MakeBlobs(spec).value();
  Dataset b = MakeBlobs(spec).value();
  for (size_t i = 0; i < a.n(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_DOUBLE_EQ(a.features()(i, 0), b.features()(i, 0));
  }
}

TEST(MakeBlobsTest, SeedChangesData) {
  BlobsSpec spec;
  spec.n = 50;
  spec.seed = 4;
  Dataset a = MakeBlobs(spec).value();
  spec.seed = 5;
  Dataset b = MakeBlobs(spec).value();
  bool any_diff = false;
  for (size_t i = 0; i < a.n() && !any_diff; ++i) {
    any_diff = a.features()(i, 0) != b.features()(i, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(MakeBlobsTest, SeparatedBlobsAreLinearlySeparated) {
  // With huge center spread and tiny cluster spread, a nearest-centroid
  // rule should be near-perfect; verify classes occupy distinct regions by
  // checking within-class distances are far smaller than between-class.
  BlobsSpec spec;
  spec.n = 200;
  spec.num_features = 2;
  spec.num_classes = 2;
  spec.clusters_per_class = 1;
  spec.cluster_spread = 0.1;
  spec.center_spread = 10.0;
  spec.seed = 6;
  Dataset d = MakeBlobs(spec).value();
  // Class centroids.
  std::vector<std::vector<double>> centroid(2, std::vector<double>(2, 0.0));
  std::vector<size_t> counts(2, 0);
  for (size_t i = 0; i < d.n(); ++i) {
    centroid[d.label(i)][0] += d.features()(i, 0);
    centroid[d.label(i)][1] += d.features()(i, 1);
    ++counts[d.label(i)];
  }
  for (int c = 0; c < 2; ++c) {
    centroid[c][0] /= counts[c];
    centroid[c][1] /= counts[c];
  }
  size_t correct = 0;
  for (size_t i = 0; i < d.n(); ++i) {
    double d0 = std::hypot(d.features()(i, 0) - centroid[0][0],
                           d.features()(i, 1) - centroid[0][1]);
    double d1 = std::hypot(d.features()(i, 0) - centroid[1][0],
                           d.features()(i, 1) - centroid[1][1]);
    correct += (d0 < d1 ? 0 : 1) == d.label(i);
  }
  EXPECT_GT(static_cast<double>(correct) / d.n(), 0.95);
}

TEST(MakeBlobsTest, LabelNoiseFlipsSomeLabels) {
  BlobsSpec clean;
  clean.n = 500;
  clean.seed = 7;
  BlobsSpec noisy = clean;
  noisy.label_noise = 0.5;
  Dataset a = MakeBlobs(clean).value();
  Dataset b = MakeBlobs(noisy).value();
  // Heavy label noise must change a substantial share of the labels
  // relative to the clean generation.
  size_t diff = 0;
  for (size_t i = 0; i < a.n(); ++i) diff += a.label(i) != b.label(i);
  EXPECT_GT(diff, 50u);
}

TEST(MakeBlobsTest, InvalidSpecsRejected) {
  BlobsSpec spec;
  spec.n = 0;
  EXPECT_FALSE(MakeBlobs(spec).ok());
  spec = BlobsSpec();
  spec.num_classes = 1;
  EXPECT_FALSE(MakeBlobs(spec).ok());
  spec = BlobsSpec();
  spec.label_noise = 1.5;
  EXPECT_FALSE(MakeBlobs(spec).ok());
  spec = BlobsSpec();
  spec.class_weights = {1.0};  // Wrong length for 2 classes.
  EXPECT_FALSE(MakeBlobs(spec).ok());
  spec = BlobsSpec();
  spec.informative_features = 100;
  spec.num_features = 10;
  EXPECT_FALSE(MakeBlobs(spec).ok());
}

TEST(MakeRegressionTest, ShapeAndDeterminism) {
  RegressionSpec spec;
  spec.n = 120;
  spec.num_features = 8;
  spec.seed = 8;
  Dataset a = MakeRegression(spec).value();
  Dataset b = MakeRegression(spec).value();
  EXPECT_EQ(a.n(), 120u);
  EXPECT_EQ(a.num_features(), 8u);
  EXPECT_DOUBLE_EQ(a.target(5), b.target(5));
}

TEST(MakeRegressionTest, NoiseIncreasesTargetSpread) {
  RegressionSpec quiet;
  quiet.n = 400;
  quiet.noise = 0.01;
  quiet.seed = 9;
  RegressionSpec loud = quiet;
  loud.noise = 20.0;
  auto variance = [](const Dataset& d) {
    double mean = 0.0;
    for (double t : d.targets()) mean += t;
    mean /= d.n();
    double var = 0.0;
    for (double t : d.targets()) var += (t - mean) * (t - mean);
    return var / d.n();
  };
  EXPECT_GT(variance(MakeRegression(loud).value()),
            variance(MakeRegression(quiet).value()));
}

TEST(PaperDatasetsTest, CatalogHasAllTwelve) {
  const auto& specs = PaperDatasets();
  ASSERT_EQ(specs.size(), 12u);
  EXPECT_EQ(specs.front().name, "australian");
  EXPECT_EQ(specs.back().name, "kc-house");
}

TEST(PaperDatasetsTest, SpecLookup) {
  PaperDatasetSpec spec = GetPaperDatasetSpec("usps").value();
  EXPECT_EQ(spec.num_classes, 10);
  EXPECT_EQ(spec.paper_train_size, 7291u);
  EXPECT_FALSE(GetPaperDatasetSpec("nonexistent").ok());
}

TEST(PaperDatasetsTest, GeneratedSizesMatchSpec) {
  TrainTestSplit split = MakePaperDataset("australian", 42).value();
  PaperDatasetSpec spec = GetPaperDatasetSpec("australian").value();
  EXPECT_EQ(split.train.n() + split.test.n(),
            spec.train_size + spec.test_size);
  EXPECT_EQ(split.train.num_features(), spec.num_features);
}

TEST(PaperDatasetsTest, ImbalancedDatasetIsImbalanced) {
  TrainTestSplit split = MakePaperDataset("fraud", 42, 0.5).value();
  std::vector<size_t> counts = DatasetView(split.train).ClassCounts();
  EXPECT_GT(counts[0], counts[1] * 10);
}

TEST(PaperDatasetsTest, RegressionDatasetIsRegression) {
  TrainTestSplit split = MakePaperDataset("kc-house", 42, 0.2).value();
  EXPECT_FALSE(split.train.is_classification());
  EXPECT_GT(split.train.n(), 0u);
}

TEST(PaperDatasetsTest, ScaleShrinksData) {
  TrainTestSplit full = MakePaperDataset("splice", 42, 1.0).value();
  TrainTestSplit half = MakePaperDataset("splice", 42, 0.5).value();
  EXPECT_LT(half.train.n(), full.train.n());
}

TEST(PaperDatasetsTest, RejectsBadScale) {
  EXPECT_FALSE(MakePaperDataset("splice", 42, 0.0).ok());
}

}  // namespace
}  // namespace bhpo
