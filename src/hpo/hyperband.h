#ifndef BHPO_HPO_HYPERBAND_H_
#define BHPO_HPO_HYPERBAND_H_

#include <vector>

#include "common/thread_pool.h"
#include "hpo/config_space.h"
#include "hpo/optimizer.h"

namespace bhpo {

// Supplies new configurations to Hyperband brackets and receives feedback.
// RandomConfigSampler gives classic Hyperband (Li et al. 2017); the TPE
// sampler in bohb.h gives BOHB.
class ConfigSampler {
 public:
  virtual ~ConfigSampler() = default;

  virtual Configuration Sample(Rng* rng) = 0;

  // Called after every evaluation; model-based samplers learn from this.
  virtual void Observe(const Configuration& config, double score,
                       size_t budget) {
    (void)config;
    (void)score;
    (void)budget;
  }

  virtual std::string name() const = 0;
};

class RandomConfigSampler : public ConfigSampler {
 public:
  explicit RandomConfigSampler(const ConfigSpace* space) : space_(space) {
    BHPO_CHECK(space != nullptr);
  }
  Configuration Sample(Rng* rng) override { return space_->Sample(rng); }
  std::string name() const override { return "random"; }

 private:
  const ConfigSpace* space_;
};

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
