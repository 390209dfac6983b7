#ifndef BHPO_DATA_FEATURE_ORDER_H_
#define BHPO_DATA_FEATURE_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"

namespace bhpo {

// Every feature column of one dataset, sorted once. Tree fits on views of
// the dataset derive their own presorted index from it in one pass per
// feature instead of one sort (SortedColumns::Build).
//
// Per feature f:
//   Order(f) — all row ids, sorted by (value, row id), with NaN after every
//              other value (so the order is strict weak even over NaN);
//   Rank(f)  — the dense rank of the value at each position of Order(f):
//              it starts at 0 and grows by one wherever the value changes.
//              -0.0 and +0.0 compare equal and share a rank; all NaNs share
//              the last one.
//
// Memory: rows() * cols() * 8 bytes (4 order + 4 rank).
class FeatureOrder {
 public:
  // Sorts every column of `features`, which must have at most 2^32 - 1
  // rows.
  explicit FeatureOrder(const Matrix& features);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  const uint32_t* Order(size_t f) const {
    BHPO_CHECK_LT(f, cols());
    return order_.data() + f * rows();
  }
  const uint32_t* Rank(size_t f) const {
    BHPO_CHECK_LT(f, cols());
    return rank_.data() + f * rows();
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> rank_;
};

// A FeatureOrder built on first use: what a Dataset and its copies share.
// Concurrent first callers (fold fits on a thread pool) build it once
// together; the rest wait for it.
class LazyFeatureOrder {
 public:
  // The order of `features`, which must be the same matrix on every call.
  const FeatureOrder& Get(const Matrix& features);

 private:
  std::once_flag once_;
  std::unique_ptr<const FeatureOrder> order_;
};

}  // namespace bhpo

#endif  // BHPO_DATA_FEATURE_ORDER_H_
