#ifndef BHPO_HPO_PASHA_H_
#define BHPO_HPO_PASHA_H_

#include <vector>

#include "hpo/asha.h"

namespace bhpo {

struct PashaOptions {
  int eta = 2;
  // Budget of rung 0; 0 = auto (same rule as ASHA, see RungBudgets).
  size_t min_budget = 0;
  size_t max_jobs = 60;
};

// Progressive ASHA (Bohdal et al. 2023), one of the Hyperband successors
// reviewed in Section II-B: ASHA's promotion rule, but the rung ladder
// starts short (two rungs) and a new, higher rung is unlocked only when
// the *soft ranking* of configurations disagrees between the current top
// two rungs — i.e. when cheap evaluations stop being predictive and more
// budget is genuinely needed. This implementation runs PASHA's scheduling
// logic on ASHA's PromotionScheduler (asha.h), in the same sequential
// simulation.
class Pasha : public PromotionScheduler {
 public:
  Pasha(const ConfigSpace* space, EvalStrategy* strategy,
        PashaOptions options = {})
      : PromotionScheduler(
            space, strategy,
            AshaOptions{options.eta, options.min_budget, options.max_jobs},
            /*progressive=*/true) {}

  std::string name() const override { return "pasha"; }
};

// PASHA's rung-growth test, exposed for unit tests: given the scores of
// configurations present in both of the two highest active rungs (aligned
// by configuration), decides whether the ranking disagrees. Soft ranking:
// a swap only counts when the lower-rung scores differ by more than
// `tolerance` — near-ties are allowed to reorder without triggering
// growth.
bool RankingDisagrees(const std::vector<double>& lower_rung_scores,
                      const std::vector<double>& upper_rung_scores,
                      double tolerance);

}  // namespace bhpo

#endif  // BHPO_HPO_PASHA_H_
