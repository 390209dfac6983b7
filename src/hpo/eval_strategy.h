#ifndef BHPO_HPO_EVAL_STRATEGY_H_
#define BHPO_HPO_EVAL_STRATEGY_H_

#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "cv/cross_validate.h"
#include "cv/gen_folds.h"
#include "cv/grouping.h"
#include "data/dataset.h"
#include "hpo/configuration.h"
#include "hpo/model_factory.h"
#include "hpo/scoring.h"

namespace bhpo {

class EvalCache;

// Outcome of evaluating one configuration under a budget of b_t instances.
struct EvalResult {
  CvOutcome cv;
  // The score the halving operation ranks by (mean, or Equation 3).
  double score = 0.0;
  // Sampling ratio |b_t| / |B| in percent.
  double gamma_percent = 0.0;
  // Instances actually used (budget after clamping).
  size_t budget_used = 0;
  // Evaluation-cache accounting for THIS evaluation: folds whose score was
  // replayed from the cache vs. folds that paid for a model fit, and
  // whether the whole result was served by a CachingStrategy decorator
  // (in which case the fold counters are the stored evaluation's).
  size_t cache_fold_hits = 0;
  size_t cache_fold_misses = 0;
  bool cache_result_hit = false;
  // Set by the optimizer layer (EvalRecorder, which demotes a demotable
  // failure to DemotedEvalResult()) when the whole evaluation failed and
  // scores the sentinel instead of aborting the search. Strategies
  // themselves never set it.
  bool eval_failed = false;
};

// Shared knobs of both strategies.
struct StrategyOptions {
  // Total folds per evaluation; the paper uses 5 everywhere.
  size_t num_folds = 5;
  EvalMetric metric = EvalMetric::kAuto;
  // Per-model training knobs.
  FactoryOptions factory;
  // When non-null, each evaluation's CV folds run in parallel on this pool,
  // and each fold's forest or GBDT fit grows its trees on it too. The pool
  // may be the same one the optimizer spreads configurations over
  // (ParallelFor nests safely); results are identical to serial execution.
  ThreadPool* cv_pool = nullptr;
  // When non-null, per-fold scores are memoized here: folds already cached
  // for this (config, subset) are injected via CvOptions::precomputed
  // instead of retrained, and fresh folds are inserted after CV. The
  // outcome is bit-identical with the cache on or off. Not owned.
  EvalCache* cache = nullptr;
  // Per-fold deadline / retry / quarantine policy applied to every
  // evaluation's CV (see FoldGuardOptions). Defaults are deterministic:
  // no deadline, transient-only retries.
  FoldGuardOptions guard;
  // Fault injection: null = FaultInjector::Global() (BHPO_FAULT-driven,
  // disabled by default). Tests pass an explicit injector. Not owned.
  FaultInjector* faults = nullptr;
};

// How a bandit-based optimizer evaluates one configuration: sample a subset
// of `budget` instances from `train`, build CV folds over it, train/score
// per fold, and reduce to a single score. The vanilla and enhanced
// implementations differ in all three steps — that difference IS the
// paper's contribution.
class EvalStrategy {
 public:
  virtual ~EvalStrategy() = default;

  virtual Result<EvalResult> Evaluate(const Configuration& config,
                                      const Dataset& train, size_t budget,
                                      Rng* rng) = 0;

  virtual std::string name() const = 0;
};

// Baseline: stratified (or uniform) subset sampling + label-stratified (or
// random) k-fold + mean fold score.
class VanillaStrategy : public EvalStrategy {
 public:
  explicit VanillaStrategy(StrategyOptions options = {},
                           bool stratified = true)
      : options_(options), stratified_(stratified) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override;

  std::string name() const override {
    return stratified_ ? "vanilla-stratified" : "vanilla-random";
  }

 private:
  StrategyOptions options_;
  bool stratified_;
};

// The paper's method: group-based subset sampling (Operation 1), general +
// special folds (Operation 2) and the variance/size-aware score
// (Equation 3). Bound to the training set its grouping was built over.
class EnhancedStrategy : public EvalStrategy {
 public:
  // Builds the grouping over `train` once, before optimization starts
  // (Figure 2 (a)-(d)). fold_options.k_gen + k_spe must equal
  // options.num_folds; scoring.alpha must be finite and >= 0 and
  // scoring.beta_max finite and > 0.
  static Result<std::unique_ptr<EnhancedStrategy>> Create(
      const Dataset& train, const GroupingOptions& grouping_options,
      const GenFoldsOptions& fold_options, const ScoringOptions& scoring,
      const StrategyOptions& options);

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override;

  std::string name() const override { return "enhanced"; }

  const Grouping& grouping() const { return grouping_; }

 private:
  EnhancedStrategy(Grouping grouping, GenFoldsOptions fold_options,
                   ScoringOptions scoring, StrategyOptions options)
      : grouping_(std::move(grouping)),
        fold_options_(fold_options),
        scoring_(scoring),
        options_(options) {}

  Grouping grouping_;
  GenFoldsOptions fold_options_;
  ScoringOptions scoring_;
  StrategyOptions options_;
};

// Clamps a requested budget to something cross-validatable. The floor is
// 2 * num_folds (so every fold holds at least 2 instances and no training
// complement is empty) unless the dataset itself is too small, in which
// case the whole dataset is used; the ceiling is n. num_folds == 0 is
// treated as 1, and the floor saturates instead of overflowing.
size_t ClampBudget(size_t budget, size_t n, size_t num_folds);

// The deterministic RNG stream for one (configuration, budget) evaluation.
// `eval_root` is drawn once per optimizer run; the returned stream is a
// pure function of (root, config canonical hash, clamped budget), so:
//  * evaluations are independent of scheduling order and pool size, and
//  * re-evaluating the same configuration at the same effective budget
//    replays the identical subset, folds and model seeds — which is what
//    makes whole evaluations cacheable bit-exactly.
Rng PerEvalRng(uint64_t eval_root, const Configuration& config, size_t budget,
               size_t n);

// The cache's subset identity for an evaluation that is about to consume
// `rng`: a fingerprint of the stream state mixed with the effective budget.
// Because the stream determines the sampled subset, the fold partition and
// every model seed, equal subset ids imply bit-identical evaluations. Both
// the strategies (fold-level cache) and the CachingStrategy decorator
// compute this from the SAME pre-evaluation rng state, so their entries
// agree without sharing any plumbing. Does not advance `rng`.
uint64_t EvalSubsetId(const Rng& rng, size_t budget, size_t n);

}  // namespace bhpo

#endif  // BHPO_HPO_EVAL_STRATEGY_H_
