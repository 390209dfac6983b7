#ifndef BHPO_HPO_CONFIG_SAMPLER_H_
#define BHPO_HPO_CONFIG_SAMPLER_H_

#include <string>

#include "common/rng.h"
#include "hpo/config_space.h"

namespace bhpo {

// Decides which configuration a search evaluates next and learns from the
// results; the loop that drives it decides at which budget. Hyperband's
// brackets (hyperband.h) and the full-budget SequentialSearch
// (sequential_search.h) both run on this seam. The samplers are
// RandomConfigSampler (Hyperband, random search), TpeConfigSampler (BOHB,
// TPE search; bohb.h), DeConfigSampler (DEHB; dehb.h) and
// SmacConfigSampler (SMAC; smac.h). A sampler keeps what it observed for
// its whole lifetime, so each run builds its own.
class ConfigSampler {
 public:
  virtual ~ConfigSampler() = default;

  virtual Configuration Sample(Rng* rng) = 0;

  // Called after every evaluation that was not demoted; model-based
  // samplers learn from this.
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

}  // namespace bhpo

#endif  // BHPO_HPO_CONFIG_SAMPLER_H_
