#include "ml/sorted_columns.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace bhpo {
namespace {

// InvalidArgument naming the first NaN or +-Inf feature value of the view's
// rows, else OK.
Status CheckFiniteFeatures(const DatasetView& view) {
  size_t d = view.num_features();
  for (size_t i = 0; i < view.n(); ++i) {
    const double* row = view.row(i);
    for (size_t f = 0; f < d; ++f) {
      if (!std::isfinite(row[f])) {
        return Status::InvalidArgument(
            "non-finite feature value at row " + std::to_string(i) +
            ", feature " + std::to_string(f));
      }
    }
  }
  return Status::OK();
}

// Sorts each of the d columns of n values (feature-major) by (value,
// fit-local id) into its order and dense ranks.
void SortColumns(const double* columns, size_t n, size_t d,
                 uint32_t* order_data, uint32_t* rank_data) {
  std::vector<std::pair<double, uint32_t>> keyed(n);
  for (size_t f = 0; f < d; ++f) {
    const double* col = columns + f * n;
    for (size_t i = 0; i < n; ++i) {
      keyed[i] = {col[i], static_cast<uint32_t>(i)};
    }
    // Pairs compare by (value, id): ties break by fit-local id.
    std::sort(keyed.begin(), keyed.end());
    uint32_t* order = order_data + f * n;
    uint32_t* rank = rank_data + f * n;
    uint32_t dense = 0;
    for (size_t p = 0; p < n; ++p) {
      if (p > 0 && keyed[p].first != keyed[p - 1].first) ++dense;
      order[p] = keyed[p].second;
      rank[keyed[p].second] = dense;
    }
  }
}

// Sorts ids[begin, end) by fit-local id unless they already ascend.
void SortRun(uint32_t* ids, size_t begin, size_t end) {
  if (!std::is_sorted(ids + begin, ids + end)) {
    std::sort(ids + begin, ids + end);
  }
}

// The same order and ranks, derived from the parent dataset's FeatureOrder
// in one pass over it per feature. The view's features must be finite.
void OrderFromParent(const DatasetView& train, const FeatureOrder& parent,
                     uint32_t* order_data, uint32_t* rank_data) {
  size_t n = train.n();
  size_t parent_n = parent.rows();
  // CSR map from parent rows to fit-local ids: parent row r's ids are
  // local[begin[r] .. begin[r + 1]), ascending. A view may repeat a row
  // (a bootstrap bag) and need not be ascending (class-grouped samples).
  std::vector<uint32_t> begin(parent_n + 1, 0);
  for (size_t i = 0; i < n; ++i) ++begin[train.parent_index(i)];
  for (size_t r = 1; r < parent_n; ++r) begin[r] += begin[r - 1];
  begin[parent_n] = static_cast<uint32_t>(n);
  // The walk reads 4 ids from begin[r] <= n on, so 4 ids of slack.
  std::vector<uint32_t> local(n + 4, 0);
  for (size_t i = n; i-- > 0;) {
    local[--begin[train.parent_index(i)]] = static_cast<uint32_t>(i);
  }

  // One feature's walk: fit-local ids in parent order, and the parent rank
  // of each. Both carry 3 slots of slack.
  std::vector<uint32_t> ids(n + 3);
  std::vector<uint32_t> value_rank(n + 3);
  for (size_t f = 0; f < parent.cols(); ++f) {
    const uint32_t* parent_order = parent.Order(f);
    const uint32_t* parent_rank = parent.Rank(f);
    // Emit each parent row's ids. Most rows occur in the view 0 or 1
    // times, a branch that mispredicts on every sampled view, so store
    // the row's first 4 ids unconditionally and advance by its count; a
    // later row (or the 3 slots of slack) overwrites what a count below 4
    // leaves.
    size_t k = 0;
    for (size_t p = 0; k < n; ++p) {
      uint32_t r = parent_order[p];
      uint32_t b = begin[r];
      uint32_t count = begin[r + 1] - b;
      uint32_t v = parent_rank[p];
      // Loaded before the stores, which the compiler cannot prove do not
      // alias them.
      const uint32_t* row_ids = local.data() + b;
      uint32_t id0 = row_ids[0], id1 = row_ids[1];
      uint32_t id2 = row_ids[2], id3 = row_ids[3];
      ids[k] = id0;
      ids[k + 1] = id1;
      ids[k + 2] = id2;
      ids[k + 3] = id3;
      value_rank[k] = v;
      value_rank[k + 1] = v;
      value_rank[k + 2] = v;
      value_rank[k + 3] = v;
      if (count > 4) [[unlikely]] {
        for (uint32_t j = 4; j < count; ++j) {
          ids[k + j] = row_ids[j];
          value_rank[k + j] = v;
        }
      }
      k += count;
    }
    // Equal parent ranks are equal values, listed by parent row; sorting
    // each run by fit-local id restores the (value, id) tie-break. The
    // dense rank steps between runs.
    uint32_t* rank = rank_data + f * n;
    uint32_t dense = 0;
    size_t run = 0;
    for (size_t q = 0; q < n; ++q) {
      if (q > 0 && value_rank[q] != value_rank[q - 1]) {
        SortRun(ids.data(), run, q);
        ++dense;
        run = q;
      }
      rank[ids[q]] = dense;
    }
    SortRun(ids.data(), run, n);
    std::copy(ids.begin(), ids.begin() + n, order_data + f * n);
  }
}

}  // namespace

Result<SortedColumns> SortedColumns::Build(const DatasetView& train) {
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot index an empty dataset");
  }
  size_t n = train.n();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows for a 32-bit row id");
  }
  BHPO_RETURN_NOT_OK(CheckFiniteFeatures(train));
  size_t d = train.num_features();
  SortedColumns out;
  out.rows_ = n;
  out.cols_ = d;
  out.columns_.resize(n * d);
  for (size_t i = 0; i < n; ++i) {
    const double* row = train.row(i);
    for (size_t f = 0; f < d; ++f) out.columns_[f * n + i] = row[f];
  }

  out.order_.resize(n * d);
  out.rank_.resize(n * d);
  if (FromParentOrder(n, train.parent().n())) {
    OrderFromParent(train, train.parent().feature_order(), out.order_.data(),
                    out.rank_.data());
  } else {
    SortColumns(out.columns_.data(), n, d, out.order_.data(),
                out.rank_.data());
  }
  return out;
}

}  // namespace bhpo
