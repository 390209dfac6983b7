#ifndef BHPO_HPO_SEQUENTIAL_SEARCH_H_
#define BHPO_HPO_SEQUENTIAL_SEARCH_H_

#include <string>

#include "hpo/config_sampler.h"
#include "hpo/optimizer.h"

namespace bhpo {

// The paper's full-budget baselines of Section IV-B, one configuration at a
// time: each iteration draws a configuration from the sampler, evaluates it
// on the whole training set, lets the sampler observe it unless it was
// demoted, and keeps the best score. There is no halving and no bracket.
// The sampler makes the method: RandomConfigSampler gives random search
// (the paper samples 10), TpeConfigSampler Optuna-style TPE (bohb.h) and
// SmacConfigSampler SMAC (smac.h); name() is the sampler's name.
//
// The sampler keeps its observations for its lifetime, so a second
// Optimize call on the same search starts from the first run's model;
// build a fresh sampler (and search) per run.
class SequentialSearch : public HpoOptimizer {
 public:
  // `sampler` and `strategy` must outlive the search.
  SequentialSearch(ConfigSampler* sampler, EvalStrategy* strategy,
                   size_t num_iterations)
      : sampler_(sampler),
        strategy_(strategy),
        num_iterations_(num_iterations) {
    BHPO_CHECK(sampler != nullptr && strategy != nullptr);
    BHPO_CHECK_GT(num_iterations, 0u);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return sampler_->name(); }

 private:
  ConfigSampler* sampler_;
  EvalStrategy* strategy_;
  size_t num_iterations_;
};

}  // namespace bhpo

#endif  // BHPO_HPO_SEQUENTIAL_SEARCH_H_
