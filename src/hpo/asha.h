#ifndef BHPO_HPO_ASHA_H_
#define BHPO_HPO_ASHA_H_

#include <vector>

#include "hpo/config_space.h"
#include "hpo/optimizer.h"

namespace bhpo {

struct AshaOptions {
  int eta = 2;
  // Budget of rung 0; 0 = auto: max(20, n / eta^3) (see RungBudgets).
  size_t min_budget = 0;
  // Total evaluation jobs to run (the stopping criterion of the
  // sequential simulation).
  size_t max_jobs = 60;
};

// ASHA's promotion scheduler (see Asha below), shared with Pasha (pasha.h)
// over the RungBudgets ladder. ASHA keeps the whole ladder active and wins
// with the best non-failed top-rung entry, else the best entry of the
// highest populated rung. PASHA (progressive) starts with two active rungs,
// adds one whenever RankingDisagrees between the two highest, and wins with
// the best entry of the highest populated rung.
class PromotionScheduler : public HpoOptimizer {
 public:
  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

 protected:
  PromotionScheduler(const ConfigSpace* space, EvalStrategy* strategy,
                     AshaOptions options, bool progressive)
      : space_(space),
        strategy_(strategy),
        options_(options),
        progressive_(progressive) {
    BHPO_CHECK(space != nullptr && strategy != nullptr);
    BHPO_CHECK_GE(options_.eta, 2);
    BHPO_CHECK_GT(options_.max_jobs, 0u);
  }

 private:
  const ConfigSpace* space_;
  EvalStrategy* strategy_;
  AshaOptions options_;
  bool progressive_;
};

// Asynchronous Successive Halving (Li et al. 2018). ASHA's core idea is a
// promotion rule that never waits for a rung to fill: whenever a worker
// asks for a job, the scheduler promotes the best not-yet-promoted
// configuration from the highest rung where it sits in the top 1/eta,
// otherwise it starts a fresh configuration at rung 0. We run that exact
// scheduling logic in a sequential simulation (one worker), which keeps the
// algorithmic behaviour — early promotions based on partial rung
// information — without threads.
class Asha : public PromotionScheduler {
 public:
  Asha(const ConfigSpace* space, EvalStrategy* strategy,
       AshaOptions options = {})
      : PromotionScheduler(space, strategy, options, /*progressive=*/false) {}

  std::string name() const override { return "asha"; }
};

}  // namespace bhpo

#endif  // BHPO_HPO_ASHA_H_
