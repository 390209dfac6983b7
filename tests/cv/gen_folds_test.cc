#include "cv/gen_folds.h"

#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace bhpo {
namespace {

struct Fixture {
  Dataset data;
  Grouping grouping;
};

Fixture MakeFixture(size_t n = 300, int groups = 2, uint64_t seed = 1) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 4;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.cluster_spread = 0.6;
  spec.center_spread = 5.0;
  spec.seed = seed;
  Fixture f;
  f.data = MakeBlobs(spec).value();
  GroupingOptions opts;
  opts.num_groups = groups;
  opts.seed = seed + 1;
  f.grouping = BuildGrouping(f.data, opts).value();
  return f;
}

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

// Partition property across the (k_gen, k_spe) allocations of Figure 6.
class FoldAllocationTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(FoldAllocationTest, FoldsPartitionSubset) {
  auto [k_gen, k_spe] = GetParam();
  Fixture f = MakeFixture();
  GenFoldsOptions opts;
  opts.k_gen = k_gen;
  opts.k_spe = k_spe;
  Rng rng(42);
  std::vector<size_t> subset = AllIndices(100);
  FoldSet fs = GenFolds(f.grouping, subset, opts, &rng).value();
  ASSERT_EQ(fs.num_folds(), k_gen + k_spe);
  EXPECT_TRUE(fs.Validate(f.data.n()).ok());
  EXPECT_EQ(fs.TotalSize(), subset.size());
  for (const auto& fold : fs.folds) EXPECT_FALSE(fold.empty());
}

INSTANTIATE_TEST_SUITE_P(Figure6Allocations, FoldAllocationTest,
                         ::testing::Values(std::make_pair(5u, 0u),
                                           std::make_pair(4u, 1u),
                                           std::make_pair(3u, 2u),
                                           std::make_pair(2u, 3u),
                                           std::make_pair(1u, 4u),
                                           std::make_pair(0u, 5u)),
                         [](const auto& info) {
                           return "gen" + std::to_string(info.param.first) +
                                  "_spe" + std::to_string(info.param.second);
                         });

TEST(GenFoldsTest, SpecialFoldsAreBiasedTowardHomeGroup) {
  Fixture f = MakeFixture(400, 2, 3);
  GenFoldsOptions opts;  // k_gen = 3, k_spe = 2, bias = 0.8.
  Rng rng(7);
  std::vector<size_t> subset = AllIndices(200);
  FoldSet fs = GenFolds(f.grouping, subset, opts, &rng).value();

  for (size_t j = 0; j < opts.k_spe; ++j) {
    const auto& fold = fs.folds[opts.k_gen + j];
    size_t home = j % 2;
    size_t from_home = 0;
    for (size_t idx : fold) {
      from_home += static_cast<size_t>(f.grouping.group_of[idx]) == home;
    }
    double ratio = static_cast<double>(from_home) / fold.size();
    EXPECT_GT(ratio, 0.6) << "special fold " << j;
  }
}

TEST(GenFoldsTest, GeneralFoldsMatchGlobalGroupDistribution) {
  Fixture f = MakeFixture(400, 2, 4);
  GenFoldsOptions opts;
  Rng rng(8);
  std::vector<size_t> subset = AllIndices(300);
  FoldSet fs = GenFolds(f.grouping, subset, opts, &rng).value();

  // Global share of group 0 within the subset.
  size_t g0 = 0;
  for (size_t idx : subset) g0 += f.grouping.group_of[idx] == 0;
  double global_share = static_cast<double>(g0) / subset.size();

  // Special folds siphon group members, so general folds track the
  // distribution of what remains rather than the global share exactly;
  // a loose tolerance still distinguishes them from special folds.
  for (size_t gen = 0; gen < opts.k_gen; ++gen) {
    const auto& fold = fs.folds[gen];
    size_t in_g0 = 0;
    for (size_t idx : fold) in_g0 += f.grouping.group_of[idx] == 0;
    double share = static_cast<double>(in_g0) / fold.size();
    EXPECT_NEAR(share, global_share, 0.25) << "general fold " << gen;
  }
}

TEST(GenFoldsTest, SmallSubsetStillPartitions) {
  Fixture f = MakeFixture(100, 2, 5);
  GenFoldsOptions opts;
  Rng rng(9);
  std::vector<size_t> subset = AllIndices(11);  // Barely above k = 5.
  FoldSet fs = GenFolds(f.grouping, subset, opts, &rng).value();
  EXPECT_EQ(fs.TotalSize(), 11u);
  for (const auto& fold : fs.folds) EXPECT_GE(fold.size(), 1u);
}

TEST(GenFoldsTest, ThreeGroupsWithTwoSpecialFolds) {
  // k_spe < v: only the first two groups get a special fold.
  Fixture f = MakeFixture(300, 3, 6);
  GenFoldsOptions opts;
  Rng rng(10);
  FoldSet fs = GenFolds(f.grouping, AllIndices(150), opts, &rng).value();
  EXPECT_EQ(fs.num_folds(), 5u);
  EXPECT_EQ(fs.TotalSize(), 150u);
}

TEST(GenFoldsTest, RejectsBadArguments) {
  Fixture f = MakeFixture(60, 2, 11);
  GenFoldsOptions opts;
  Rng rng(12);
  EXPECT_FALSE(GenFolds(f.grouping, {0, 1, 2}, opts, &rng).ok());  // < k
  GenFoldsOptions zero;
  zero.k_gen = 0;
  zero.k_spe = 0;
  EXPECT_FALSE(GenFolds(f.grouping, AllIndices(20), zero, &rng).ok());
  GenFoldsOptions bad_bias;
  bad_bias.special_bias = 1.5;
  EXPECT_FALSE(GenFolds(f.grouping, AllIndices(20), bad_bias, &rng).ok());
  EXPECT_FALSE(GenFolds(f.grouping, AllIndices(20), opts, nullptr).ok());
  // A negative count cast to size_t: k_gen + k_spe wraps around to 2,
  // which must not pass as two folds.
  GenFoldsOptions wrap;
  wrap.k_gen = SIZE_MAX;
  wrap.k_spe = 3;
  EXPECT_EQ(GenFolds(f.grouping, AllIndices(20), wrap, &rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GroupedFoldBuilderTest, AdapterEnforcesK) {
  Fixture f = MakeFixture(100, 2, 13);
  GenFoldsOptions opts;
  GroupedFoldBuilder builder(&f.grouping, opts);
  Rng rng(14);
  EXPECT_FALSE(builder.Build(f.data, AllIndices(50), 4, &rng).ok());
  FoldSet fs = builder.Build(f.data, AllIndices(50), 5, &rng).value();
  EXPECT_EQ(fs.num_folds(), 5u);
  EXPECT_EQ(builder.name(), "grouped");
}

}  // namespace
}  // namespace bhpo
