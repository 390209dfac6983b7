#include "hpo/tpe_search.h"

namespace bhpo {

Result<HpoResult> TpeSearch::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  // Per-(config, budget) evaluation streams; see eval_strategy.h.
  EvalRecorder run(strategy_, train, rng->engine()());
  for (size_t iter = 0; iter < options_.num_iterations; ++iter) {
    Configuration config = sampler_.Sample(rng);
    BHPO_ASSIGN_OR_RETURN(EvalResult eval, run.Evaluate(config, train.n()));
    // Demoted evaluations are recorded in the history but never teach the
    // TPE densities or win the search.
    if (!eval.eval_failed) {
      sampler_.Observe(config, eval.score, eval.budget_used);
    }
    run.KeepBest(config, eval);
  }
  return std::move(run.result());
}

}  // namespace bhpo
