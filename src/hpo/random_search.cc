#include "hpo/random_search.h"

namespace bhpo {

Result<HpoResult> RandomSearch::Optimize(const Dataset& train, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  // Per-(config, budget) evaluation streams: a duplicate sample replays
  // (and cache-hits) its earlier evaluation instead of re-rolling it.
  EvalRecorder run(strategy_, train, rng->engine()());
  for (size_t i = 0; i < num_samples_; ++i) {
    Configuration config = space_->Sample(rng);
    // A sample whose evaluation blows up is demoted, not fatal: random
    // search just moves on to the next draw.
    BHPO_ASSIGN_OR_RETURN(EvalResult eval, run.Evaluate(config, train.n()));
    run.KeepBest(config, eval);
  }
  return std::move(run.result());
}

}  // namespace bhpo
