#include "data/dataset.h"

#include <gtest/gtest.h>

#include "data/dataset_view.h"

namespace bhpo {
namespace {

Dataset SmallClassification() {
  Matrix x = Matrix::FromRows({{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 2}});
  return Dataset::Classification(x, {0, 1, 1, 0, 2}).value();
}

TEST(DatasetTest, ClassificationBasics) {
  Dataset d = SmallClassification();
  EXPECT_TRUE(d.is_classification());
  EXPECT_EQ(d.n(), 5u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.num_classes(), 3);
  EXPECT_EQ(d.label(4), 2);
}

TEST(DatasetTest, ClassificationRejectsSizeMismatch) {
  Matrix x(3, 2);
  auto r = Dataset::Classification(x, {0, 1});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, ClassificationRejectsOutOfRangeLabel) {
  Matrix x(2, 1);
  auto r = Dataset::Classification(x, {0, 5}, 2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(DatasetTest, ClassificationNeedsTwoClasses) {
  Matrix x(2, 1);
  auto r = Dataset::Classification(x, {0, 0}, 1);
  EXPECT_FALSE(r.ok());
}

TEST(DatasetTest, RegressionBasics) {
  Matrix x = Matrix::FromRows({{1}, {2}});
  Dataset d = Dataset::Regression(x, {0.5, 1.5}).value();
  EXPECT_FALSE(d.is_classification());
  EXPECT_DOUBLE_EQ(d.target(1), 1.5);
}

TEST(DatasetDeathTest, WrongTaskAccessorAborts) {
  Dataset d = SmallClassification();
  EXPECT_DEATH((void)d.targets(), "targets\\(\\)");
  Matrix x(2, 1);
  Dataset r = Dataset::Regression(x, {1.0, 2.0}).value();
  EXPECT_DEATH((void)r.labels(), "labels\\(\\)");
}

TEST(DatasetTest, SubsetPreservesTaskAndClassCount) {
  Dataset d = SmallClassification();
  Dataset s = d.Subset({4, 0});
  EXPECT_EQ(s.n(), 2u);
  EXPECT_EQ(s.num_classes(), 3);  // Metadata survives missing classes.
  EXPECT_EQ(s.label(0), 2);
  EXPECT_EQ(s.label(1), 0);
  EXPECT_DOUBLE_EQ(s.features()(0, 0), 2.0);
}

TEST(DatasetTest, ClassCountsAndIndicesByClass) {
  Dataset d = SmallClassification();
  DatasetView view = d;
  std::vector<size_t> counts = view.ClassCounts();
  EXPECT_EQ(counts, (std::vector<size_t>{2, 2, 1}));
  auto by_class = view.IndicesByClass();
  EXPECT_EQ(by_class[0], (std::vector<size_t>{0, 3}));
  EXPECT_EQ(by_class[2], (std::vector<size_t>{4}));
}

TEST(DatasetTest, StandardizedHasZeroMeanUnitVariance) {
  Matrix x = Matrix::FromRows({{1, 10}, {2, 20}, {3, 30}, {4, 40}});
  Dataset d = Dataset::Regression(x, {1, 2, 3, 4}).value();
  Dataset s = d.Standardized();
  for (size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (size_t r = 0; r < 4; ++r) mean += s.features()(r, c);
    mean /= 4.0;
    for (size_t r = 0; r < 4; ++r) {
      double delta = s.features()(r, c) - mean;
      var += delta * delta;
    }
    var /= 4.0;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(DatasetTest, StandardizerConstantColumnMapsToZero) {
  Matrix x = Matrix::FromRows({{5, 1}, {5, 2}});
  Dataset d = Dataset::Regression(x, {0, 0}).value();
  Dataset s = d.Standardized();
  EXPECT_DOUBLE_EQ(s.features()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.features()(1, 0), 0.0);
}

TEST(DatasetTest, StandardizerAppliesToNewData) {
  Matrix x = Matrix::FromRows({{0.0}, {2.0}});
  Dataset d = Dataset::Regression(x, {0, 0}).value();
  Dataset::Standardizer s = d.ComputeStandardizer();
  Matrix fresh = Matrix::FromRows({{4.0}});
  Matrix out = s.Apply(fresh);
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0);  // (4 - 1) / 1
}

TEST(DatasetTest, SummaryMentionsShape) {
  Dataset d = SmallClassification();
  std::string summary = d.Summary();
  EXPECT_NE(summary.find("5 instances"), std::string::npos);
  EXPECT_NE(summary.find("3 classes"), std::string::npos);
}

}  // namespace
}  // namespace bhpo
