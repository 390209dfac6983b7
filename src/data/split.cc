#include "data/split.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace bhpo {

std::vector<size_t> Apportion(size_t count, const std::vector<double>& parts) {
  BHPO_CHECK(!parts.empty());
  double total = std::accumulate(parts.begin(), parts.end(), 0.0);
  std::vector<size_t> out(parts.size(), 0);
  if (total <= 0.0 || count == 0) return out;

  // Largest-remainder (Hamilton) apportionment.
  std::vector<double> remainders(parts.size());
  size_t assigned = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    double exact = static_cast<double>(count) * parts[i] / total;
    out[i] = static_cast<size_t>(std::floor(exact));
    remainders[i] = exact - std::floor(exact);
    assigned += out[i];
  }
  std::vector<size_t> order(parts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return remainders[a] > remainders[b];
  });
  for (size_t i = 0; assigned < count; ++i) {
    ++out[order[i % order.size()]];
    ++assigned;
  }
  return out;
}

std::vector<size_t> SampleUniform(size_t n, size_t count, Rng* rng) {
  BHPO_CHECK(rng != nullptr);
  count = std::min(count, n);
  return rng->SampleWithoutReplacement(n, count);
}

std::vector<size_t> SampleStratified(const DatasetView& view, size_t count,
                                     Rng* rng) {
  BHPO_CHECK(rng != nullptr);
  BHPO_CHECK(view.is_classification());
  size_t n = view.n();
  std::vector<std::vector<size_t>> by_class = view.IndicesByClass();
  count = std::min(count, n);
  std::vector<double> weights;
  weights.reserve(by_class.size());
  for (const auto& cls : by_class) {
    weights.push_back(static_cast<double>(cls.size()));
  }
  std::vector<size_t> quota = Apportion(count, weights);

  std::vector<size_t> out;
  out.reserve(count);
  for (size_t c = 0; c < by_class.size(); ++c) {
    size_t take = std::min(quota[c], by_class[c].size());
    std::vector<size_t> picks =
        rng->SampleWithoutReplacement(by_class[c].size(), take);
    for (size_t p : picks) out.push_back(by_class[c][p]);
  }
  // Quota may exceed a tiny class; backfill uniformly from the rest.
  if (out.size() < count) {
    std::vector<char> taken(n, 0);
    for (size_t i : out) taken[i] = 1;
    std::vector<size_t> remaining;
    for (size_t i = 0; i < n; ++i) {
      if (!taken[i]) remaining.push_back(i);
    }
    rng->Shuffle(&remaining);
    for (size_t i = 0; out.size() < count && i < remaining.size(); ++i) {
      out.push_back(remaining[i]);
    }
  }
  rng->Shuffle(&out);
  return out;
}

Result<IndexSplit> SplitViewIndices(const DatasetView& view,
                                    double test_fraction, Rng* rng,
                                    bool stratified) {
  if (rng == nullptr) {
    return Status::InvalidArgument("SplitViewIndices needs an Rng");
  }
  if (!(0.0 < test_fraction && test_fraction < 1.0)) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  size_t n = view.n();
  size_t n_test = static_cast<size_t>(
      std::llround(test_fraction * static_cast<double>(n)));
  n_test = std::max<size_t>(1, std::min(n_test, n - 1));

  IndexSplit split;
  split.test = (stratified && view.is_classification())
                   ? SampleStratified(view, n_test, rng)
                   : SampleUniform(n, n_test, rng);

  std::vector<char> is_test(n, 0);
  for (size_t i : split.test) is_test[i] = 1;
  split.train.reserve(n - n_test);
  for (size_t i = 0; i < n; ++i) {
    if (!is_test[i]) split.train.push_back(i);
  }
  return split;
}

Result<TrainTestSplit> SplitTrainTest(const Dataset& dataset,
                                      double test_fraction, Rng* rng,
                                      bool stratified) {
  // Same draw sequence as SplitViewIndices over the identity view, so the
  // materializing and index-level paths produce corresponding splits for
  // the same rng state.
  Result<IndexSplit> indices =
      SplitViewIndices(dataset, test_fraction, rng, stratified);
  if (!indices.ok()) return indices.status();

  TrainTestSplit split;
  split.train = dataset.Subset(indices->train);
  split.test = dataset.Subset(indices->test);
  return split;
}

}  // namespace bhpo
