#include "hpo/bohb.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bhpo {

void TpeConfigSampler::Observe(const Configuration& config, double score,
                               size_t budget) {
  by_budget_[budget].push_back({config, score});
}

size_t TpeConfigSampler::ModelBudget() const {
  for (auto it = by_budget_.rbegin(); it != by_budget_.rend(); ++it) {
    if (it->second.size() >= options_.min_points) return it->first;
  }
  return 0;
}

Configuration TpeConfigSampler::Sample(Rng* rng) {
  BHPO_CHECK(rng != nullptr);
  size_t budget = ModelBudget();
  if (budget == 0 || rng->Uniform() < options_.random_fraction) {
    return space_->Sample(rng);
  }

  // Split the highest-budget observations into good/bad by score.
  std::vector<Observation> obs = by_budget_.at(budget);
  std::stable_sort(obs.begin(), obs.end(),
                   [](const Observation& a, const Observation& b) {
                     return a.score > b.score;
                   });
  size_t n_good = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(options_.top_fraction *
                                       static_cast<double>(obs.size()))));
  n_good = std::min(n_good, obs.size() - 1);

  // Smoothed categorical densities per hyperparameter.
  size_t p = space_->num_hyperparameters();
  std::vector<std::vector<double>> good_pmf(p), bad_pmf(p);
  for (size_t i = 0; i < p; ++i) {
    const Hyperparameter& param = space_->param(i);
    good_pmf[i].assign(param.values.size(), options_.smoothing);
    bad_pmf[i].assign(param.values.size(), options_.smoothing);
  }
  auto accumulate = [&](const Observation& o,
                        std::vector<std::vector<double>>* pmf) {
    for (size_t i = 0; i < p; ++i) {
      const Hyperparameter& param = space_->param(i);
      std::string value = o.config.GetOr(param.name, "");
      for (size_t vi = 0; vi < param.values.size(); ++vi) {
        if (param.values[vi] == value) {
          (*pmf)[i][vi] += 1.0;
          break;
        }
      }
    }
  };
  for (size_t o = 0; o < obs.size(); ++o) {
    accumulate(obs[o], o < n_good ? &good_pmf : &bad_pmf);
  }
  auto normalize = [](std::vector<std::vector<double>>* pmf) {
    for (auto& row : *pmf) {
      double total = 0.0;
      for (double x : row) total += x;
      for (double& x : row) x /= total;
    }
  };
  normalize(&good_pmf);
  normalize(&bad_pmf);

  // Draw candidates from l(x) and keep the best l/g ratio. Starting at -inf
  // keeps the first candidate even when every log ratio is very negative.
  Configuration best;
  double best_ratio = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < options_.num_candidates; ++c) {
    Configuration candidate;
    double log_ratio = 0.0;
    for (size_t i = 0; i < p; ++i) {
      const Hyperparameter& param = space_->param(i);
      size_t vi = rng->Categorical(good_pmf[i]);
      candidate.Set(param.name, param.values[vi]);
      log_ratio += std::log(good_pmf[i][vi]) - std::log(bad_pmf[i][vi]);
    }
    if (log_ratio > best_ratio) {
      best_ratio = log_ratio;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace bhpo
