#ifndef BHPO_HPO_SMAC_H_
#define BHPO_HPO_SMAC_H_

#include <vector>

#include "hpo/config_sampler.h"

namespace bhpo {

struct SmacOptions {
  // Uniform-random warm start: the first initial_random Sample calls draw
  // uniformly before the surrogate takes over.
  size_t initial_random = 6;
  // Candidates scored by the acquisition function per Sample call.
  size_t candidates_per_iteration = 200;
  // Expected-improvement exploration jitter.
  double ei_xi = 0.01;
  // Surrogate forest size.
  int surrogate_trees = 25;
};

// SMAC-style model-based sampler (Hutter et al. 2011; SMAC3 is one of the
// paper's extra baselines in Section IV-B). After the warm start, each
// Sample call fits a random-forest surrogate on every (encoded
// configuration -> observed score) pair and returns the candidate that
// maximizes expected improvement over the incumbent, estimated from the
// forest's per-tree mean/stddev. The incumbent follows EvalRecorder's
// KeepBest rule: the first observation, then only a strictly greater
// score. Until something has been observed (every warm-start evaluation
// demoted), Sample keeps drawing uniformly, so the surrogate is never fit
// on zero rows.
//
// Run by SequentialSearch, every evaluation is at the FULL instance budget:
// the non-multi-fidelity baseline the bandit methods are compared against
// (the paper found it "performed similarly to random search" under matched
// time budgets). Observations are not told apart by budget. The sampler
// keeps its observations and its Sample count for its lifetime, as the TPE
// and DE samplers do, so each run builds its own.
class SmacConfigSampler : public ConfigSampler {
 public:
  SmacConfigSampler(const ConfigSpace* space, SmacOptions options = {})
      : space_(space), options_(options) {
    BHPO_CHECK(space != nullptr);
    BHPO_CHECK_GT(options_.initial_random, 0u);
    BHPO_CHECK_GT(options_.candidates_per_iteration, 0u);
    BHPO_CHECK_GE(options_.surrogate_trees, 1);
  }

  Configuration Sample(Rng* rng) override;
  void Observe(const Configuration& config, double score,
               size_t budget) override;
  std::string name() const override { return "smac"; }

 private:
  const ConfigSpace* space_;
  SmacOptions options_;
  size_t num_samples_ = 0;
  // Row-major encodings of the observed configurations, one row each.
  std::vector<double> encodings_;
  std::vector<double> scores_;
  double incumbent_ = 0.0;
};

// Expected improvement of N(mean, stddev^2) over `best` (maximization),
// with exploration jitter xi. Exposed for tests.
double ExpectedImprovement(double mean, double stddev, double best,
                           double xi);

}  // namespace bhpo

#endif  // BHPO_HPO_SMAC_H_
