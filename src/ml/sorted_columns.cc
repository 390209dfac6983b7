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
  std::vector<std::pair<double, uint32_t>> keyed(n);
  for (size_t f = 0; f < d; ++f) {
    const double* col = out.Column(f);
    for (size_t i = 0; i < n; ++i) {
      keyed[i] = {col[i], static_cast<uint32_t>(i)};
    }
    // Pairs compare by (value, id): ties break by fit-local id.
    std::sort(keyed.begin(), keyed.end());
    uint32_t* order = out.order_.data() + f * n;
    uint32_t* rank = out.rank_.data() + f * n;
    uint32_t dense = 0;
    for (size_t p = 0; p < n; ++p) {
      if (p > 0 && keyed[p].first != keyed[p - 1].first) ++dense;
      order[p] = keyed[p].second;
      rank[keyed[p].second] = dense;
    }
  }
  return out;
}

}  // namespace bhpo
