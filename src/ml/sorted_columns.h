#ifndef BHPO_ML_SORTED_COLUMNS_H_
#define BHPO_ML_SORTED_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/col_block_matrix.h"
#include "common/status.h"
#include "data/dataset_view.h"

namespace bhpo {

// InvalidArgument naming the first NaN or +-Inf feature value of the view's
// rows, else OK.
Status CheckFiniteFeatures(const DatasetView& view);

// Presorted feature index over one ensemble fit's training rows, built once
// per RandomForest / GbdtModel / standalone DecisionTree fit and shared by
// every tree that fit grows. Rows are addressed by *fit-local id*: row i of
// the training view the index was built from.
//
// Per feature f it holds:
//   Column(f) — the fit's values, gathered column-blocked (contiguous);
//   Order(f)  — all fit-local ids sorted by (value, id);
//   Rank(f)   — each id's dense rank in that order: equal values share a
//               rank, and ranks ascend with value.
// A node's rows in feature order are then either a walk over Order(f)
// (large nodes) or a sort of packed (rank << 32 | id) integer keys (small
// nodes) — never a comparator sort over doubles. Both yield the same
// (value, id) order, so the choice is invisible in the trees.
//
// Memory: rows() * cols() * 16 bytes (8 value + 4 order + 4 rank), plus
// column padding.
class SortedColumns {
 public:
  SortedColumns() = default;

  // Fails with InvalidArgument when the view is empty, has more rows than
  // a 32-bit id can address, or holds a non-finite feature value (NaN has
  // no place in the order every split search relies on).
  static Result<SortedColumns> Build(const DatasetView& train);

  size_t rows() const { return columns_.rows(); }
  size_t cols() const { return columns_.cols(); }

  const double* Column(size_t f) const { return columns_.Column(f); }
  const uint32_t* Order(size_t f) const {
    BHPO_CHECK_LT(f, cols());
    return order_.data() + f * rows();
  }
  const uint32_t* Rank(size_t f) const {
    BHPO_CHECK_LT(f, cols());
    return rank_.data() + f * rows();
  }

 private:
  ColBlockMatrix columns_;
  std::vector<uint32_t> order_;
  std::vector<uint32_t> rank_;
};

}  // namespace bhpo

#endif  // BHPO_ML_SORTED_COLUMNS_H_
