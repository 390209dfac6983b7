#ifndef BHPO_ML_SORTED_COLUMNS_H_
#define BHPO_ML_SORTED_COLUMNS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "data/dataset_view.h"

namespace bhpo {

// Presorted feature index over one ensemble fit's training rows, built once
// per RandomForest / GbdtModel / standalone DecisionTree fit and shared by
// every tree that fit grows. Rows are addressed by *fit-local id*: row i of
// the training view the index was built from.
//
// Per feature f it holds:
//   Column(f) — the fit's values, one contiguous array per feature;
//   Order(f)  — all fit-local ids sorted by (value, id);
//   Rank(f)   — each id's dense rank in that order: equal values share a
//               rank, and ranks ascend with value.
// NodeOrder (below) reads Order and Rank to put a node's rows in feature
// order.
//
// Build: a fit large enough next to its parent dataset (FromParentOrder)
// derives Order and Rank from the parent's FeatureOrder, which sorts the
// whole dataset once on first use and is shared by every fit on it: one
// pass over the parent order per feature, plus a sort by fit-local id of
// each run of equal values whose ids do not already ascend. A smaller fit
// sorts its own columns. Both give the same index bit for bit.
//
// Memory: rows() * cols() * 16 bytes (8 value + 4 order + 4 rank) per fit,
// plus the parent's FeatureOrder, 8 bytes per parent row and feature, once
// per dataset.
class SortedColumns {
 public:
  SortedColumns() = default;

  // Fails with InvalidArgument when the view is empty, has more rows than
  // a 32-bit id can address, or holds a non-finite feature value (NaN has
  // no place in the order every split search relies on). A view with no
  // features gives an index of rows() = n and cols() = 0. Non-finite
  // values in parent rows outside the view are allowed.
  static Result<SortedColumns> Build(const DatasetView& train);

  // Whether a fit of n rows over a parent dataset of parent_n rows derives
  // its order from the parent's (one O(parent_n + n) pass per feature)
  // rather than sorting (n log n steps per feature, each dearer). The
  // walk starts to win about where 3 n ceil(log2 n) exceeds parent_n,
  // measured at the a9a rung and fold shapes and at full a9a size
  // (DESIGN.md §9).
  static bool FromParentOrder(size_t n, size_t parent_n) {
    if (parent_n > std::numeric_limits<uint32_t>::max()) return false;
    size_t log2_n = 0;
    while ((size_t{1} << log2_n) < n) ++log2_n;
    return 3 * n * log2_n > parent_n;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  const double* Column(size_t f) const {
    BHPO_CHECK_LT(f, cols());
    return columns_.data() + f * rows();
  }
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
  std::vector<double> columns_;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> rank_;
};

// Puts one tree node's fit-local ids in (value, id) order, feature by
// feature, from a SortedColumns index. A node may hold an id more than
// once (a bootstrap bag); copies of one id come out adjacent. Per node:
// BeginNode, then SortedBy once per candidate feature, then EndNode.
//
// A large node walks the presorted Order(f) and emits each id as often as
// it occurs in the node; a small one sorts packed (rank << 32 | id) keys.
// Both give the same sequence, so the choice never shows in a tree.
//
// Buffers, all owned by the caller: `keys` holds m keys for the largest
// node m; `counts` holds rows() zeros and is zero again after each
// EndNode.
class NodeOrder {
 public:
  NodeOrder(const SortedColumns* index, uint64_t* keys, uint32_t* counts)
      : index_(index), keys_(keys), counts_(counts) {}

  // Whether a node of m ids out of n_fit fit rows walks. A walk costs one
  // pass over the whole fit per feature; a key sort costs m log m steps,
  // each dearer than a walk step. Walking once 6 m ceil(log2 m) exceeds
  // n_fit was the cheapest cut-off measured node by node on full-depth
  // trees and on the benchmark's forest and GBDT grid (DESIGN.md §9);
  // always walking is quadratic in the node count of deep trees.
  static bool Walks(size_t m, size_t n_fit) {
    size_t log2_m = 0;
    while ((size_t{1} << log2_m) < m) ++log2_m;
    return 6 * m * log2_m > n_fit;
  }

  const SortedColumns& index() const { return *index_; }

  void BeginNode(const uint32_t* ids, size_t n) {
    walk_ = Walks(n, index_->rows());
    if (walk_) {
      for (size_t i = 0; i < n; ++i) ++counts_[ids[i]];
    }
  }

  // Writes the node's n ids in feature f's (value, id) order to out[0, n).
  // `out` holds n + 3 ids: a walk may store up to 3 past the last one.
  void SortedBy(size_t f, const uint32_t* ids, size_t n, uint32_t* out) {
    if (walk_) {
      // Bootstrap multiplicities are Poisson(1), so a loop over them
      // mispredicts at almost every row; instead store the id four times
      // unconditionally and advance by its count. A later id (or the 3 ids
      // of slack past n) overwrites the stores a count below 4 leaves
      // behind.
      const uint32_t* order = index_->Order(f);
      size_t k = 0;
      for (size_t p = 0; k < n; ++p) {
        uint32_t id = order[p];
        uint32_t count = counts_[id];
        out[k] = id;
        out[k + 1] = id;
        out[k + 2] = id;
        out[k + 3] = id;
        if (count > 4) [[unlikely]] {
          for (uint32_t c = 4; c < count; ++c) out[k + c] = id;
        }
        k += count;
      }
    } else {
      // Dense ranks ascend with value, so sorting (rank << 32 | id) keys
      // yields the same (value, id) order as the walk.
      const uint32_t* rank = index_->Rank(f);
      for (size_t i = 0; i < n; ++i) {
        keys_[i] = (uint64_t{rank[ids[i]]} << 32) | ids[i];
      }
      std::sort(keys_, keys_ + n);
      for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(keys_[i]);
    }
  }

  void EndNode(const uint32_t* ids, size_t n) {
    if (walk_) {
      for (size_t i = 0; i < n; ++i) counts_[ids[i]] = 0;
    }
  }

 private:
  const SortedColumns* index_;
  uint64_t* keys_;
  uint32_t* counts_;
  bool walk_ = false;
};

// Stable partition of ids[0, n) by side[id]: the ids of side 0 keep their
// order at the front, then those of side 1 in order. Returns the count of
// side 0. `spill` holds n ids. Applied to a node's ids in one feature's
// order, it leaves each child's ids in that order, as NodeOrder would put
// them (sorted_columns_test.cc checks this against SortedBy), so a tree
// that scans every feature at every node keeps each feature's order from
// the root down instead of ordering each node again. Branchless: every id
// is stored to both sides and only its own side's cursor moves.
inline size_t PartitionBySide(uint32_t* ids, size_t n, const uint8_t* side,
                              uint32_t* spill) {
  size_t left = 0, right = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t id = ids[i];
    size_t s = side[id];
    ids[left] = id;
    spill[right] = id;
    left += 1 - s;
    right += s;
  }
  std::copy(spill, spill + right, ids + left);
  return left;
}

}  // namespace bhpo

#endif  // BHPO_ML_SORTED_COLUMNS_H_
