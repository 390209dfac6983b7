// FeatureOrder: every column of a dataset sorted once, by (value, row id),
// with NaN after every other value. How a Dataset and its copies share it
// is checked with the index built from it, in tests/ml/sorted_columns_test.cc.

#include "data/feature_order.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

std::vector<uint32_t> OrderOf(const FeatureOrder& order, size_t f) {
  return std::vector<uint32_t>(order.Order(f), order.Order(f) + order.rows());
}

std::vector<uint32_t> RankOf(const FeatureOrder& order, size_t f) {
  return std::vector<uint32_t>(order.Rank(f), order.Rank(f) + order.rows());
}

TEST(FeatureOrderTest, SortsByValueThenRowIdWithNanLast) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  Matrix x(7, 2);
  // Feature 0: ties, NaNs, both infinities and both zeros.
  const double f0[] = {2.0, nan, -inf, 0.0, -0.0, nan, 2.0};
  // Feature 1: distinct values, descending.
  const double f1[] = {6.0, 5.0, 4.0, 3.0, 2.0, 1.0, inf};
  for (size_t i = 0; i < 7; ++i) {
    x(i, 0) = f0[i];
    x(i, 1) = f1[i];
  }
  FeatureOrder order(x);
  ASSERT_EQ(order.rows(), 7u);
  ASSERT_EQ(order.cols(), 2u);
  // -0.0 and +0.0 compare equal: they tie by row id and share a rank, as
  // do the two 2.0s and the two NaNs.
  EXPECT_EQ(OrderOf(order, 0), (std::vector<uint32_t>{2, 3, 4, 0, 6, 1, 5}));
  EXPECT_EQ(RankOf(order, 0), (std::vector<uint32_t>{0, 1, 1, 2, 2, 3, 3}));
  EXPECT_EQ(OrderOf(order, 1), (std::vector<uint32_t>{5, 4, 3, 2, 1, 0, 6}));
  EXPECT_EQ(RankOf(order, 1), (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(FeatureOrderTest, AllNanAndEmptyShapes) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix all_nan(3, 1);
  for (size_t i = 0; i < 3; ++i) all_nan(i, 0) = nan;
  FeatureOrder order(all_nan);
  EXPECT_EQ(OrderOf(order, 0), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(RankOf(order, 0), (std::vector<uint32_t>{0, 0, 0}));

  FeatureOrder no_rows{Matrix(0, 3)};
  EXPECT_EQ(no_rows.rows(), 0u);
  EXPECT_EQ(no_rows.cols(), 3u);
  FeatureOrder no_cols{Matrix(4, 0)};
  EXPECT_EQ(no_cols.rows(), 4u);
  EXPECT_EQ(no_cols.cols(), 0u);
}

}  // namespace
}  // namespace bhpo
