#ifndef BHPO_DATA_SPLIT_H_
#define BHPO_DATA_SPLIT_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/dataset_view.h"

namespace bhpo {

struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

// Index-level train/test split: the same sampling as SplitTrainTest but
// expressed as view-relative indices, so callers on the zero-copy path
// (e.g. the MLP's early-stopping holdout) can split without materializing
// either side.
struct IndexSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

Result<IndexSplit> SplitViewIndices(const DatasetView& view,
                                    double test_fraction, Rng* rng,
                                    bool stratified = true);

// Random (optionally class-stratified) train/test split. The paper uses the
// 80/20 rule for datasets shipped without a test set; test_fraction = 0.2
// reproduces that. Stratification keeps per-class proportions within one
// instance of exact.
Result<TrainTestSplit> SplitTrainTest(const Dataset& dataset,
                                      double test_fraction, Rng* rng,
                                      bool stratified = true);

// Uniformly samples `count` instances without replacement.
std::vector<size_t> SampleUniform(size_t n, size_t count, Rng* rng);

// Class-stratified sample of `count` view-relative indices from a
// classification dataset: each class contributes round(count * class_share)
// instances (largest remainder rounding so the total is exact).
std::vector<size_t> SampleStratified(const DatasetView& view, size_t count,
                                     Rng* rng);

// Splits `count` into `parts.size()` integers proportional to `parts`
// weights using largest-remainder apportionment; sum equals count and each
// part with positive weight gets at least 0.
std::vector<size_t> Apportion(size_t count, const std::vector<double>& parts);

}  // namespace bhpo

#endif  // BHPO_DATA_SPLIT_H_
