#ifndef BHPO_HPO_HYPERBAND_H_
#define BHPO_HPO_HYPERBAND_H_

#include <vector>

#include "common/thread_pool.h"
#include "hpo/config_sampler.h"
#include "hpo/optimizer.h"

namespace bhpo {

struct HyperbandOptions {
  int eta = 3;
  // Smallest per-configuration instance budget r. 0 = auto:
  // max(20, R / eta^3) (see RungBudgets).
  size_t min_budget = 0;
  // Optional worker pool for within-rung parallelism (same contract as
  // ShaOptions::pool). Sampler Observe callbacks remain sequential and
  // ordered. Not owned; may be null.
  ThreadPool* pool = nullptr;
};

// Hyperband: runs SHA brackets s = s_max .. 0 trading off the number of
// configurations against their starting budget; every bracket's last rung
// evaluates at the full budget R = n, and the best full-budget score wins.
class Hyperband : public HpoOptimizer {
 public:
  // All pointers must outlive the optimizer.
  Hyperband(ConfigSampler* sampler, EvalStrategy* strategy,
            HyperbandOptions options = {})
      : sampler_(sampler), strategy_(strategy), options_(options) {
    BHPO_CHECK(sampler != nullptr && strategy != nullptr);
    BHPO_CHECK_GE(options_.eta, 2);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return "hyperband"; }

 private:
  ConfigSampler* sampler_;
  EvalStrategy* strategy_;
  HyperbandOptions options_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_HYPERBAND_H_
