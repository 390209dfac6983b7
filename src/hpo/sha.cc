#include "hpo/sha.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace bhpo {

std::vector<size_t> TopIndicesByScore(const std::vector<double>& scores,
                                      size_t keep) {
  keep = std::min(keep, scores.size());
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  order.resize(keep);
  return order;
}

std::vector<size_t> RungBudgets(size_t min_budget, size_t n, int eta) {
  double eta_d = static_cast<double>(eta);
  size_t r_min = min_budget > 0
                     ? min_budget
                     : std::max<size_t>(
                           20, static_cast<size_t>(static_cast<double>(n) /
                                                   std::pow(eta_d, 3)));
  std::vector<size_t> budgets;
  for (size_t b = std::min(r_min, n);; b = static_cast<size_t>(b * eta_d)) {
    budgets.push_back(std::min(b, n));
    if (budgets.back() >= n) break;
  }
  return budgets;
}

Result<HpoResult> SuccessiveHalving::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  const CheckpointState* resume = options_.checkpoint.resume;
  if (resume != nullptr) {
    if (resume->method != name()) {
      return Status::InvalidArgument(
          "checkpoint was written by method '" + resume->method +
          "', not '" + name() + "'");
    }
    if (!options_.checkpoint.run_tag.empty() &&
        resume->run_tag != options_.checkpoint.run_tag) {
      return Status::InvalidArgument(
          "checkpoint run tag '" + resume->run_tag +
          "' does not match expected '" + options_.checkpoint.run_tag + "'");
    }
  }
  // One stream root for the whole run; every evaluation's randomness is
  // PerEvalRng(root, config, budget) from here on. Restoring it from a
  // checkpoint (and NOT drawing from rng) is what makes every remaining
  // evaluation replay the uninterrupted run bit-identically.
  EvalRecorder run(strategy_, train,
                   resume != nullptr ? resume->eval_root : rng->engine()());
  HpoResult& result = run.result();
  std::vector<Configuration> survivors =
      resume != nullptr ? resume->survivors : candidates_;
  size_t rungs_completed = resume != nullptr ? resume->rungs_completed : 0;
  if (resume != nullptr) {
    result.history = resume->history;
    result.num_evaluations = resume->num_evaluations;
    result.total_instances = resume->total_instances;
    result.faults = resume->faults;
  }
  if (survivors.empty()) {
    return Status::InvalidArgument("checkpoint holds no survivors");
  }
  size_t total_budget = train.n();  // B = n (Table I).
  double last_best_score = 0.0;

  while (survivors.size() > 1) {
    size_t per_config = std::max<size_t>(1, total_budget / survivors.size());

    BHPO_ASSIGN_OR_RETURN(
        std::vector<EvalResult> evals,
        run.EvaluateRung(survivors, per_config, options_.pool));
    std::vector<double> scores(survivors.size());
    for (size_t i = 0; i < survivors.size(); ++i) scores[i] = evals[i].score;

    size_t keep = std::max<size_t>(
        1, (survivors.size() + options_.eta - 1) /
               static_cast<size_t>(options_.eta));
    std::vector<size_t> kept = TopIndicesByScore(scores, keep);
    last_best_score = scores[kept.front()];

    std::vector<Configuration> next;
    next.reserve(kept.size());
    for (size_t idx : kept) next.push_back(std::move(survivors[idx]));
    survivors = std::move(next);

    ++rungs_completed;
    if (!options_.checkpoint.path.empty()) {
      CheckpointState state;
      state.method = name();
      state.run_tag = options_.checkpoint.run_tag;
      state.eval_root = run.eval_root();
      state.rungs_completed = rungs_completed;
      state.survivors = survivors;
      state.history = result.history;
      state.num_evaluations = result.num_evaluations;
      state.total_instances = result.total_instances;
      state.faults = result.faults;
      Status saved = SaveCheckpoint(options_.checkpoint.path, state,
                                    options_.checkpoint.faults);
      if (!saved.ok()) {
        // A failed checkpoint write (torn write, full disk) costs resume
        // granularity, never the run: the previous checkpoint is intact
        // and the search continues.
        BHPO_LOG(kWarning) << "checkpoint write failed after rung "
                           << rungs_completed
                           << " (run continues): " << saved.ToString();
      }
      if (options_.checkpoint.stop_after_rungs > 0 &&
          rungs_completed >= options_.checkpoint.stop_after_rungs) {
        // Simulated SIGKILL at the checkpoint boundary (test hook).
        return Status::DeadlineExceeded(
            "stopped after rung " + std::to_string(rungs_completed) +
            " (ShaCheckpointOptions::stop_after_rungs)");
      }
    }
  }

  result.best_config = survivors.front();
  if (candidates_.size() == 1 && resume == nullptr) {
    // Degenerate space: score the lone candidate at full budget.
    BHPO_ASSIGN_OR_RETURN(EvalResult eval,
                          run.Evaluate(result.best_config, train.n()));
    last_best_score = eval.score;
  }

  // Report the winner's own score from the evaluation record — its
  // highest-budget (latest, on ties) entry — rather than whatever score
  // happened to top the last rung. The two coincide in the common case,
  // but recomputing from history keeps best_score honest for any rung
  // schedule (and for searches where every score is negative, where a 0.0
  // fallback would overstate the result).
  result.best_score = last_best_score;
  bool found = false;
  size_t best_budget = 0;
  for (const EvaluationRecord& record : result.history) {
    if (!(record.config == result.best_config)) continue;
    if (!found || record.budget >= best_budget) {
      found = true;
      best_budget = record.budget;
      result.best_score = record.score;
    }
  }
  return std::move(result);
}

}  // namespace bhpo
