#ifndef BHPO_CV_CROSS_VALIDATE_H_
#define BHPO_CV_CROSS_VALIDATE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "cv/folds.h"
#include "data/dataset_view.h"
#include "ml/model.h"

namespace bhpo {

// What happened to one fold of a CV round.
enum class FoldStatus : uint8_t {
  kSkipped = 0,      // Empty fold (or empty training complement): never run.
  kScored = 1,       // Model fit and scored normally (score is finite).
  kFailed = 2,       // Training side failed to fit (e.g. diverged solver).
  kQuarantined = 3,  // Fit succeeded but the score was NaN/Inf; the score
                     // is quarantined so it can never reach mu/sigma.
  kTimedOut = 4,     // The fold exceeded its deadline (guard options).
};

// Per-fold detail, index-aligned with the fold partition. `score` is only
// meaningful when `status == kScored`.
struct FoldOutcome {
  double score = 0.0;
  FoldStatus status = FoldStatus::kSkipped;
  // Retry attempts beyond the first try (transient failures only).
  uint8_t retries = 0;
  // The final failure was transient (retryable): a later evaluation should
  // re-attempt this fold instead of replaying the failure from a cache.
  bool transient_failure = false;
};

// Per-configuration cross-validation outcome: the raw fold scores plus the
// mean/stddev the scoring layer consumes (Figure 2(g)->(h)).
struct CvOutcome {
  // One entry per fold whose model fit succeeded, in fold order. Every
  // entry is finite: non-finite scores are quarantined into `folds` and
  // can never reach the Equation 3 mean/stddev.
  std::vector<double> fold_scores;
  // One entry per fold of the partition (including skipped/failed folds),
  // in fold order — the per-fold view the evaluation cache memoizes.
  std::vector<FoldOutcome> folds;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  size_t subset_size = 0;
  // Folds that were attempted but produced no usable score — the sum of
  // fit failures, quarantined scores and timeouts. These are excluded from
  // the mean/stddev rather than polluting them with a fake sentinel score;
  // if every fold fails the mean is -infinity so the configuration loses
  // any comparison.
  size_t failed_folds = 0;
  // Breakdown of failed_folds, plus retry/injection accounting. These
  // count work done by THIS CrossValidate call: folds replayed from the
  // evaluation cache contribute nothing (same convention as the cache
  // hit/miss counters).
  size_t quarantined_folds = 0;
  size_t timed_out_folds = 0;
  size_t fold_retries = 0;
  size_t injected_faults = 0;
};

// Creates the model for fold f. Receiving the fold index lets callers give
// every fold a deterministic seed (MixSeed) that is independent of the
// order folds actually execute in — a requirement for reproducible results
// under fold-parallel evaluation.
using FoldModelFactory = std::function<std::unique_ptr<Model>(size_t fold)>;

// A fold whose outcome is already known (typically from the evaluation
// cache): CrossValidate records it verbatim instead of training the fold's
// model. Injecting the exact value a computation would have produced keeps
// the outcome bit-identical to an uncached run while skipping the fit.
struct PrecomputedFold {
  size_t fold = 0;
  double score = 0.0;
  bool failed = false;
};

// Per-fold evaluation guard: deadline, bounded retry and backoff. All
// defaults are "off"/deterministic — a run that never opts into a deadline
// is a pure function of its seeds.
struct FoldGuardOptions {
  // Wall-clock budget per fold in seconds; 0 disables the deadline. The
  // elapsed time compared against it is (clock reading) + (virtual
  // seconds injected by kSlowFold faults and retry backoff), so timeout
  // behaviour is testable without sleeping.
  double fold_deadline_seconds = 0.0;
  // Retries (beyond the first attempt) for transient failures
  // (Status::IsTransient). Deterministic failures never retry.
  int max_retries = 2;
  // Deterministic exponential backoff: retry attempt a accounts
  // backoff_base_seconds * 2^a of *virtual* wait toward the deadline. No
  // real sleeping happens — an in-process refit has nothing to wait for —
  // but the accounting preserves the deadline semantics a distributed
  // executor would see.
  double backoff_base_seconds = 0.05;
  // Time source for the deadline; null = Clock::Real(). Tests use a
  // FakeClock to drive timeouts deterministically.
  const Clock* clock = nullptr;
};

struct CvOptions {
  EvalMetric metric = EvalMetric::kAuto;
  // When non-null, folds are evaluated in parallel on this pool. Results
  // are bit-identical to the serial order regardless of pool size.
  ThreadPool* pool = nullptr;
  // Folds to take as given rather than recompute. Entries with an
  // out-of-range fold index are ignored.
  std::vector<PrecomputedFold> precomputed;
  // Deadline / retry / quarantine policy.
  FoldGuardOptions guard;
  // Fault injection: null = FaultInjector::Global() (BHPO_FAULT-driven,
  // disabled by default). Tests pass an explicit injector for hermeticity.
  FaultInjector* faults = nullptr;
  // Deterministic identity of THIS evaluation for fault-site derivation —
  // strategies pass their EvalSubsetId so injected faults are a pure
  // function of (fault seed, evaluation, fold, attempt) and replay
  // identically across runs, pool sizes and resumes.
  uint64_t fault_site = 0;
};

// Runs k-fold CV over a fold partition of `data`: round f trains on the
// complement of fold f and scores on fold f. Training and validation sides
// are passed to the model as views, so no feature row is copied on this
// path. Every fold runs under the guard policy in `options.guard`: a fold
// whose fit fails, whose score is non-finite (quarantine) or whose
// deadline expires is recorded in `failed_folds` — after bounded retries
// for transient failures — rather than aborting the search. A bandit must
// be able to discard broken configurations gracefully.
Result<CvOutcome> CrossValidate(const DatasetView& data, const FoldSet& folds,
                                const FoldModelFactory& factory,
                                const CvOptions& options = {});

// Convenience: mean/population-stddev of a score vector.
void MeanStddev(const std::vector<double>& values, double* mean,
                double* stddev);

}  // namespace bhpo

#endif  // BHPO_CV_CROSS_VALIDATE_H_
