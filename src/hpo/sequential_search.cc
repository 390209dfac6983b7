#include "hpo/sequential_search.h"

namespace bhpo {

Result<HpoResult> SequentialSearch::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  // Per-(config, budget) evaluation streams: a duplicate sample replays
  // (and cache-hits) its earlier evaluation instead of re-rolling it.
  EvalRecorder run(strategy_, train, rng->engine()());
  for (size_t iter = 0; iter < num_iterations_; ++iter) {
    Configuration config = sampler_->Sample(rng);
    // A failed evaluation is demoted, not fatal: the search moves on.
    BHPO_ASSIGN_OR_RETURN(EvalResult eval, run.Evaluate(config, train.n()));
    // Demoted evaluations are recorded in the history but never teach the
    // sampler or win the search.
    if (!eval.eval_failed) {
      sampler_->Observe(config, eval.score, eval.budget_used);
    }
    run.KeepBest(config, eval);
  }
  return std::move(run.result());
}

}  // namespace bhpo
