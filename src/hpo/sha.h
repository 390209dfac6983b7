#ifndef BHPO_HPO_SHA_H_
#define BHPO_HPO_SHA_H_

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "hpo/checkpoint.h"
#include "hpo/optimizer.h"

namespace bhpo {

// Crash-safe checkpointing for a SuccessiveHalving run. With a non-empty
// path, the run writes a checkpoint after every completed rung; a run
// resumed from such a checkpoint reproduces the uninterrupted run's best
// configuration and history bit-identically (evaluations are pure functions
// of the restored eval_root — see PerEvalRng).
struct ShaCheckpointOptions {
  // Checkpoint file; empty disables checkpointing.
  std::string path;
  // Recorded in the checkpoint; resume refuses a checkpoint whose tag
  // differs from a non-empty tag here. Put the dataset/seed identity in it.
  std::string run_tag;
  // Resume from this previously loaded state instead of starting fresh.
  // Not owned; must outlive Optimize.
  const CheckpointState* resume = nullptr;
  // Test hook simulating a SIGKILL at the checkpoint boundary: Optimize
  // returns DeadlineExceeded right after `stop_after_rungs` rungs have
  // completed (and their checkpoint write was attempted). 0 = never stop.
  size_t stop_after_rungs = 0;
  // Fault injection for checkpoint IO (kCheckpointTornWrite); null =
  // FaultInjector::Global(). Not owned.
  FaultInjector* faults = nullptr;
};

struct ShaOptions {
  // Keep the top 1/eta of the candidates each iteration; 2 = halving, the
  // paper's Figure 1 schedule.
  int eta = 2;
  // Optional worker pool: candidates within a rung are independent, so
  // their evaluations run concurrently when a pool is supplied. The
  // strategy must then be thread-safe for concurrent Evaluate calls (both
  // built-in strategies are: they only read shared state). Results are
  // deterministic regardless of thread count — every candidate gets its
  // own forked RNG stream up front. Not owned; may be null.
  ThreadPool* pool = nullptr;
  ShaCheckpointOptions checkpoint;
};

// Successive Halving (Jamieson & Talwalkar 2016) with instances as the
// budget, exactly as Algorithm 1 frames it: each iteration evaluates every
// surviving configuration on b_t = B / |T_t| instances via k-fold CV, then
// drops the bottom (eta-1)/eta by score. Plugging in EnhancedStrategy
// yields the paper's SHA+.
class SuccessiveHalving : public HpoOptimizer {
 public:
  // `strategy` must outlive the optimizer; `candidates` is T_0.
  SuccessiveHalving(std::vector<Configuration> candidates,
                    EvalStrategy* strategy, ShaOptions options = {})
      : candidates_(std::move(candidates)),
        strategy_(strategy),
        options_(options) {
    BHPO_CHECK(strategy != nullptr);
    BHPO_CHECK(!candidates_.empty());
    BHPO_CHECK_GE(options_.eta, 2);
  }

  Result<HpoResult> Optimize(const Dataset& train, Rng* rng) override;

  std::string name() const override { return "sha"; }

 private:
  std::vector<Configuration> candidates_;
  EvalStrategy* strategy_;
  ShaOptions options_;
};

// Ranks `scores` descending and returns the indices of the `keep` best
// (stable: earlier candidates win ties). Shared by SHA, Hyperband, ASHA and
// PASHA.
std::vector<size_t> TopIndicesByScore(const std::vector<double>& scores,
                                      size_t keep);

// The rung ladder shared by Hyperband, ASHA and PASHA for a training set of
// n instances: rung k evaluates at r_min * eta^k (truncated), capped at n,
// and the last rung is the first one that reaches n. front() is r_min:
// `min_budget`, or when that is 0 the auto rule max(20, n / eta^3), in
// both cases capped at n.
std::vector<size_t> RungBudgets(size_t min_budget, size_t n, int eta);

}  // namespace bhpo

#endif  // BHPO_HPO_SHA_H_
