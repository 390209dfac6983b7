// Property-style sweeps (parameterized gtest) over the CV substrate's
// core invariants: fold sets always partition their subset, grouping
// always covers the dataset, and group-stratified sampling tracks group
// proportions — across a grid of sizes, fold allocations and seeds.

#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "cv/gen_folds.h"
#include "cv/kfold.h"
#include "cv/stratified_kfold.h"
#include "data/split.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

struct PropertyCase {
  size_t n;            // dataset size
  int num_classes;
  int num_groups;      // v
  size_t subset_size;
  size_t k_gen;
  size_t k_spe;
  uint64_t seed;
};

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  uint64_t seed = 1;
  for (size_t n : {60u, 200u, 500u}) {
    for (int classes : {2, 4}) {
      for (int v : {2, 3}) {
        for (size_t subset : {n / 8, n / 3, n}) {
          for (auto [k_gen, k_spe] :
               {std::pair<size_t, size_t>{3, 2},
                std::pair<size_t, size_t>{5, 0},
                std::pair<size_t, size_t>{0, 5}}) {
            if (subset < k_gen + k_spe) continue;
            cases.push_back({n, classes, v, subset, k_gen, k_spe, seed++});
          }
        }
      }
    }
  }
  return cases;
}

class CvPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  Dataset MakeData(const PropertyCase& p) {
    BlobsSpec spec;
    spec.n = p.n;
    spec.num_features = 4;
    spec.num_classes = p.num_classes;
    spec.clusters_per_class = 2;
    spec.seed = p.seed;
    return MakeBlobs(spec).value();
  }
};

TEST_P(CvPropertyTest, GroupingCoversAndFoldsPartition) {
  PropertyCase p = GetParam();
  Dataset data = MakeData(p);

  GroupingOptions gopts;
  gopts.num_groups = p.num_groups;
  gopts.seed = p.seed + 100;
  Grouping grouping = BuildGrouping(data, gopts).value();

  // Invariant 1: grouping covers every instance with a valid group id.
  size_t covered = 0;
  for (const auto& members : grouping.members) covered += members.size();
  ASSERT_EQ(covered, data.n());
  for (int g : grouping.group_of) {
    ASSERT_GE(g, 0);
    ASSERT_LT(g, p.num_groups);
  }

  // Invariant 2: group-stratified sampling returns exactly the requested
  // count of distinct indices.
  Rng rng(p.seed + 200);
  std::vector<size_t> subset = p.subset_size >= data.n()
                                   ? [&] {
                                       std::vector<size_t> all(data.n());
                                       std::iota(all.begin(), all.end(), 0);
                                       return all;
                                     }()
                                   : SampleFromGroups(grouping,
                                                      p.subset_size, &rng);
  ASSERT_EQ(subset.size(), std::min(p.subset_size, data.n()));
  std::vector<char> seen(data.n(), 0);
  for (size_t idx : subset) {
    ASSERT_LT(idx, data.n());
    ASSERT_FALSE(seen[idx]) << "duplicate index in sample";
    seen[idx] = 1;
  }

  // Invariant 3: GenFolds partitions the subset into non-empty folds.
  GenFoldsOptions fopts;
  fopts.k_gen = p.k_gen;
  fopts.k_spe = p.k_spe;
  FoldSet folds = GenFolds(grouping, subset, fopts, &rng).value();
  ASSERT_EQ(folds.num_folds(), p.k_gen + p.k_spe);
  ASSERT_TRUE(folds.Validate(data.n()).ok());
  ASSERT_EQ(folds.TotalSize(), subset.size());
  for (const auto& fold : folds.folds) ASSERT_FALSE(fold.empty());

  // Invariant 4: every fold's complement plus itself is the subset.
  std::vector<size_t> reassembled = folds.ComplementOf(0);
  reassembled.insert(reassembled.end(), folds.folds[0].begin(),
                     folds.folds[0].end());
  ASSERT_EQ(reassembled.size(), subset.size());
}

TEST_P(CvPropertyTest, BaselineBuildersPartitionToo) {
  PropertyCase p = GetParam();
  if (p.k_gen + p.k_spe < 2) GTEST_SKIP();
  Dataset data = MakeData(p);
  Rng rng(p.seed + 300);
  std::vector<size_t> subset(std::min(p.subset_size, data.n()));
  std::iota(subset.begin(), subset.end(), 0);
  size_t k = p.k_gen + p.k_spe;
  if (subset.size() < k) GTEST_SKIP();

  RandomKFold random_builder;
  FoldSet random_folds = random_builder.Build(data, subset, k, &rng).value();
  ASSERT_TRUE(random_folds.Validate(data.n()).ok());
  ASSERT_EQ(random_folds.TotalSize(), subset.size());

  StratifiedKFold stratified_builder;
  FoldSet strat_folds =
      stratified_builder.Build(data, subset, k, &rng).value();
  ASSERT_TRUE(strat_folds.Validate(data.n()).ok());
  ASSERT_EQ(strat_folds.TotalSize(), subset.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CvPropertyTest, ::testing::ValuesIn(MakeCases()),
    [](const auto& info) {
      const PropertyCase& p = info.param;
      // Appends in place: chained operator+ temporaries trip GCC 12's
      // -Wrestrict false positive inside std::string.
      std::string name = "n";
      name += std::to_string(p.n);
      name += "_c";
      name += std::to_string(p.num_classes);
      name += "_v";
      name += std::to_string(p.num_groups);
      name += "_s";
      name += std::to_string(p.subset_size);
      name += "_g";
      name += std::to_string(p.k_gen);
      name += "_p";
      name += std::to_string(p.k_spe);
      return name;
    });

}  // namespace
}  // namespace bhpo
