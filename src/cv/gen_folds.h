#ifndef BHPO_CV_GEN_FOLDS_H_
#define BHPO_CV_GEN_FOLDS_H_

#include "cv/folds.h"
#include "cv/grouping.h"

namespace bhpo {

// Options for the paper's fold construction (Section III-B, Operation 2).
// The paper keeps k_gen + k_spe == 5 and uses k_gen = 3, k_spe = 2 with a
// ~80/20 biased draw for the special folds.
struct GenFoldsOptions {
  size_t k_gen = 3;
  size_t k_spe = 2;
  // Fraction of a special fold drawn from its home group; the remainder is
  // stratified over the other groups.
  double special_bias = 0.8;

  // k_gen + k_spe; InvalidArgument when the sum wraps around size_t (a
  // negative count cast to size_t).
  Result<size_t> NumFolds() const;
};

// Builds k_gen general + k_spe special folds over `subset` (absolute row
// ids). The folds are a partition of the subset so standard k-fold CV
// semantics hold: folds[0 .. k_gen) are general (group-stratified slices),
// folds[k_gen .. k_gen+k_spe) are special (fold k_gen + j is biased toward
// group j % v). Requires |subset| >= k_gen + k_spe >= 2.
Result<FoldSet> GenFolds(const Grouping& grouping,
                         const std::vector<size_t>& subset,
                         const GenFoldsOptions& options, Rng* rng);

// FoldBuilder adapter so the grouped scheme can drop into any code written
// against the builder interface. `Build`'s k must equal k_gen + k_spe.
// The grouping must outlive the builder.
class GroupedFoldBuilder : public FoldBuilder {
 public:
  GroupedFoldBuilder(const Grouping* grouping, GenFoldsOptions options)
      : grouping_(grouping), options_(options) {
    BHPO_CHECK(grouping != nullptr);
  }

  Result<FoldSet> Build(const Dataset& data, const std::vector<size_t>& subset,
                        size_t k, Rng* rng) const override;
  std::string name() const override { return "grouped"; }

 private:
  const Grouping* grouping_;
  GenFoldsOptions options_;
};

}  // namespace bhpo

#endif  // BHPO_CV_GEN_FOLDS_H_
