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

Result<HpoResult> Smac::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  std::vector<std::vector<double>> observed_encodings;
  std::vector<double> observed_scores;
  // Per-(config, budget) evaluation streams; see eval_strategy.h.
  EvalRecorder run(strategy_, train, rng->engine()());

  auto evaluate = [&](const Configuration& config) -> Status {
    BHPO_ASSIGN_OR_RETURN(EvalResult eval, run.Evaluate(config, train.n()));
    if (!eval.eval_failed) {
      // The surrogate must not learn from a sentinel -inf observation.
      observed_encodings.push_back(space_->Encode(config));
      observed_scores.push_back(eval.score);
    }
    run.KeepBest(config, eval);
    return Status::OK();
  };

  // Warm start.
  size_t warm = std::min(options_.initial_random, options_.num_iterations);
  for (size_t i = 0; i < warm; ++i) {
    BHPO_RETURN_NOT_OK(evaluate(space_->Sample(rng)));
  }

  for (size_t iter = warm; iter < options_.num_iterations; ++iter) {
    // Fit the surrogate on everything observed so far.
    Matrix x(observed_encodings.size(), space_->num_hyperparameters());
    for (size_t r = 0; r < observed_encodings.size(); ++r) {
      for (size_t c = 0; c < observed_encodings[r].size(); ++c) {
        x(r, c) = observed_encodings[r][c];
      }
    }
    BHPO_ASSIGN_OR_RETURN(Dataset surrogate_data,
                          Dataset::Regression(std::move(x),
                                              observed_scores));
    RandomForestConfig rf_config;
    rf_config.num_trees = options_.surrogate_trees;
    rf_config.tree.min_samples_leaf = 1;
    rf_config.seed = rng->engine()();
    RandomForest surrogate(rf_config);
    BHPO_RETURN_NOT_OK(surrogate.Fit(surrogate_data));

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
      double ei = ExpectedImprovement(mean[i], stddev[i],
                                      run.result().best_score, options_.ei_xi);
      if (ei > best_ei) {
        best_ei = ei;
        best_candidate = i;
      }
    }
    BHPO_RETURN_NOT_OK(evaluate(candidate_configs[best_candidate]));
  }
  return std::move(run.result());
}

}  // namespace bhpo
