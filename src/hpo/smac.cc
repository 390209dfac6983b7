#include "hpo/smac.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "ml/random_forest.h"

namespace bhpo {

double ExpectedImprovement(double mean, double stddev, double best,
                           double xi) {
  double improvement = mean - best - xi;
  if (stddev < 1e-12) return std::max(0.0, improvement);
  double z = improvement / stddev;
  // Standard normal pdf/cdf.
  double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
  double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
  return improvement * cdf + stddev * pdf;
}

Configuration SmacConfigSampler::Sample(Rng* rng) {
  // The warm start, or nothing observed yet because every evaluation so
  // far was demoted: a surrogate is never fit on zero rows.
  if (num_samples_++ < options_.initial_random || scores_.empty()) {
    return space_->Sample(rng);
  }

  // Fit the surrogate on everything observed so far. The forest size was
  // checked at construction and the encodings are finite, so neither step
  // can fail on the non-empty observations.
  Matrix x(scores_.size(), space_->num_hyperparameters());
  x.data() = encodings_;
  Dataset surrogate_data =
      Dataset::Regression(std::move(x), scores_).value();
  RandomForestConfig rf_config;
  rf_config.num_trees = options_.surrogate_trees;
  rf_config.tree.min_samples_leaf = 1;
  rf_config.seed = rng->engine()();
  RandomForest surrogate(rf_config);
  Status fit = surrogate.Fit(surrogate_data);
  BHPO_CHECK(fit.ok()) << fit.ToString();

  // Acquisition maximization over random candidates (plus the incumbent
  // neighborhood via plain sampling — adequate for categorical spaces).
  Matrix candidates(options_.candidates_per_iteration,
                    space_->num_hyperparameters());
  std::vector<Configuration> candidate_configs;
  candidate_configs.reserve(options_.candidates_per_iteration);
  for (size_t i = 0; i < options_.candidates_per_iteration; ++i) {
    Configuration c = space_->Sample(rng);
    std::vector<double> enc = space_->Encode(c);
    for (size_t d = 0; d < enc.size(); ++d) candidates(i, d) = enc[d];
    candidate_configs.push_back(std::move(c));
  }
  std::vector<double> mean, stddev;
  surrogate.PredictValuesWithStd(candidates, &mean, &stddev);

  size_t best_candidate = 0;
  double best_ei = -1.0;
  for (size_t i = 0; i < candidate_configs.size(); ++i) {
    double ei =
        ExpectedImprovement(mean[i], stddev[i], incumbent_, options_.ei_xi);
    if (ei > best_ei) {
      best_ei = ei;
      best_candidate = i;
    }
  }
  return std::move(candidate_configs[best_candidate]);
}

void SmacConfigSampler::Observe(const Configuration& config, double score,
                                size_t budget) {
  (void)budget;
  if (scores_.empty() || score > incumbent_) incumbent_ = score;
  std::vector<double> enc = space_->Encode(config);
  encodings_.insert(encodings_.end(), enc.begin(), enc.end());
  scores_.push_back(score);
}

}  // namespace bhpo
