#include "data/feature_order.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace bhpo {

FeatureOrder::FeatureOrder(const Matrix& features)
    : rows_(features.rows()), cols_(features.cols()) {
  BHPO_CHECK_LE(rows_, size_t{std::numeric_limits<uint32_t>::max()})
      << "too many rows for a 32-bit row id";
  size_t n = rows_;
  order_.resize(n * cols_);
  rank_.resize(n * cols_);
  std::vector<std::pair<double, uint32_t>> keyed;
  keyed.reserve(n);
  std::vector<uint32_t> nans;
  const double* values = features.data().data();
  for (size_t f = 0; f < cols_; ++f) {
    // NaN has no place in a (value, id) comparison, so NaN rows are set
    // aside in id order and appended after the sorted rest.
    keyed.clear();
    nans.clear();
    for (size_t i = 0; i < n; ++i) {
      double v = values[i * cols_ + f];
      if (std::isnan(v)) {
        nans.push_back(static_cast<uint32_t>(i));
      } else {
        keyed.emplace_back(v, static_cast<uint32_t>(i));
      }
    }
    std::sort(keyed.begin(), keyed.end());
    uint32_t* order = order_.data() + f * n;
    uint32_t* rank = rank_.data() + f * n;
    uint32_t dense = 0;
    for (size_t p = 0; p < keyed.size(); ++p) {
      if (p > 0 && keyed[p].first != keyed[p - 1].first) ++dense;
      order[p] = keyed[p].second;
      rank[p] = dense;
    }
    if (!keyed.empty() && !nans.empty()) ++dense;
    for (size_t j = 0; j < nans.size(); ++j) {
      order[keyed.size() + j] = nans[j];
      rank[keyed.size() + j] = dense;
    }
  }
}

const FeatureOrder& LazyFeatureOrder::Get(const Matrix& features) {
  std::call_once(once_, [&] {
    order_ = std::make_unique<const FeatureOrder>(features);
  });
  return *order_;
}

}  // namespace bhpo
