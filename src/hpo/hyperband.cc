#include "hpo/hyperband.h"

#include <algorithm>
#include <cmath>

#include "hpo/sha.h"

namespace bhpo {

Result<HpoResult> Hyperband::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  double eta = static_cast<double>(options_.eta);
  size_t big_r = train.n();  // Maximum per-configuration budget.
  size_t r_min = RungBudgets(options_.min_budget, big_r, options_.eta).front();
  int s_max = static_cast<int>(std::floor(
      std::log(static_cast<double>(big_r) / static_cast<double>(r_min)) /
      std::log(eta)));
  s_max = std::max(s_max, 0);

  // One eval_root shared across ALL brackets: a configuration re-sampled in
  // a later bracket replays the same per-(config, budget) evaluation
  // streams, so a wired-in evaluation cache serves those repeats without
  // retraining.
  EvalRecorder run(strategy_, train, rng->engine()());

  for (int s = s_max; s >= 0; --s) {
    // Bracket s: n_s configurations starting at budget R * eta^-s.
    size_t n_s = static_cast<size_t>(std::ceil(
        static_cast<double>(s_max + 1) / static_cast<double>(s + 1) *
        std::pow(eta, s)));
    double r_s = static_cast<double>(big_r) * std::pow(eta, -s);

    std::vector<Configuration> configs;
    configs.reserve(n_s);
    for (size_t i = 0; i < n_s; ++i) configs.push_back(sampler_->Sample(rng));

    for (int i = 0; i <= s; ++i) {
      size_t budget = static_cast<size_t>(
          std::llround(r_s * std::pow(eta, i)));
      budget = std::min<size_t>(std::max<size_t>(budget, 1), big_r);

      BHPO_ASSIGN_OR_RETURN(
          std::vector<EvalResult> evals,
          run.EvaluateRung(configs, budget, options_.pool));
      std::vector<double> scores(configs.size());
      for (size_t c = 0; c < configs.size(); ++c) {
        const EvalResult& eval = evals[c];
        scores[c] = eval.score;
        // A demoted evaluation's sentinel score must not feed the sampler's
        // model (BOHB's KDE would learn from a fake -inf observation).
        if (!eval.eval_failed) {
          sampler_->Observe(configs[c], eval.score, eval.budget_used);
        }
        // Every bracket tops out at budget R, and only those evaluations
        // are comparable across brackets.
        if (budget == big_r) run.KeepBest(configs[c], eval);
      }

      if (i == s) break;  // Last rung of the bracket.
      size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::floor(
                 static_cast<double>(configs.size()) / eta)));
      std::vector<size_t> kept = TopIndicesByScore(scores, keep);
      std::vector<Configuration> next;
      next.reserve(kept.size());
      for (size_t idx : kept) next.push_back(std::move(configs[idx]));
      configs = std::move(next);
    }
  }

  if (!run.has_best()) {
    return Status::Internal("hyperband produced no full-budget evaluation");
  }
  return std::move(run.result());
}

}  // namespace bhpo
