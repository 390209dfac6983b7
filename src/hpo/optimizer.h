#ifndef BHPO_HPO_OPTIMIZER_H_
#define BHPO_HPO_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "hpo/eval_strategy.h"

namespace bhpo {

// One configuration evaluation during a search.
struct EvaluationRecord {
  Configuration config;
  double score = 0.0;
  size_t budget = 0;
  // The evaluation was demoted to the sentinel score (-inf) because it
  // failed outright — the halving operation drops it instead of aborting.
  bool eval_failed = false;
};

// Per-run fault-tolerance accounting: every degradation the run absorbed
// instead of aborting. All zero on a clean run.
struct FaultReport {
  // Whole evaluations demoted to the sentinel score.
  size_t failed_evals = 0;
  // Folds that produced no usable score (fit failures + quarantines +
  // timeouts), and the quarantine/timeout breakdown.
  size_t failed_folds = 0;
  size_t quarantined_folds = 0;
  size_t timed_out_folds = 0;
  // Retry attempts spent on transient fold failures.
  size_t fold_retries = 0;
  // Faults the injector actually fired (0 unless BHPO_FAULT is active).
  size_t injected_faults = 0;

  size_t total_degradations() const {
    return failed_evals + failed_folds;
  }
};

// The outcome of a hyperparameter search.
struct HpoResult {
  Configuration best_config;
  // Internal (CV) score of the winning configuration at its final budget.
  double best_score = 0.0;
  size_t num_evaluations = 0;
  // Sum of instance budgets over all evaluations — the hardware-independent
  // cost proxy the bandit methods reason about.
  size_t total_instances = 0;
  std::vector<EvaluationRecord> history;
  FaultReport faults;
};

// Common interface of the nine methods: random search, SHA, Hyperband,
// BOHB, DEHB, ASHA, PASHA, SMAC and TPE (random search, SMAC and TPE are
// one SequentialSearch over three samplers). An optimizer is wired to an
// EvalStrategy at construction; running the same optimizer with
// VanillaStrategy vs EnhancedStrategy gives the paper's "X" vs "X+" pairs.
// Every optimizer evaluates and records through EvalRecorder (below).
class HpoOptimizer {
 public:
  virtual ~HpoOptimizer() = default;

  virtual Result<HpoResult> Optimize(const Dataset& train, Rng* rng) = 0;

  virtual std::string name() const = 0;
};

// Trains the chosen configuration on the full training set and scores it on
// train and test — the paper's "trainAcc./testAcc." rows. The model is
// built at options.seed; a non-null `pool` parallelizes a tree ensemble's
// fit (BuildModel) without changing either metric.
struct FinalEvaluation {
  double train_metric = 0.0;
  double test_metric = 0.0;
};

Result<FinalEvaluation> EvaluateFinalConfig(const Configuration& config,
                                            const Dataset& train,
                                            const Dataset& test,
                                            EvalMetric metric,
                                            const FactoryOptions& options,
                                            ThreadPool* pool = nullptr);

// --- Rung-level graceful degradation -------------------------------------
// A bandit optimizer must never abort a bracket because one configuration's
// evaluation blew up: the broken candidate is demoted with a sentinel score
// and loses every comparison, while genuine caller bugs (invalid argument,
// unknown hyperparameter) still propagate.

// True for failure codes that describe THIS evaluation going wrong (fit
// divergence, injected faults, timeouts, IO trouble) rather than the search
// being misconfigured.
bool IsDemotableEvalError(const Status& status);

// The sentinel an optimizer records for a demoted evaluation: score = -inf
// (loses any comparison), eval_failed = true, zero budget consumed.
EvalResult DemotedEvalResult();

// Folds one evaluation's degradation counters into a run-level report.
void AccumulateFaults(const EvalResult& eval, FaultReport* report);

// Evaluates a rung of configurations at one budget, serially or on the
// pool (see ShaOptions::pool for the threading contract). Each evaluation
// runs on PerEvalRng(eval_root, config, budget, n): a pure function of the
// root, the configuration and the budget, so results are deterministic
// regardless of thread count AND identical whenever the same
// (config, budget) pair recurs — within a rung, across Hyperband brackets,
// or across the whole run — which is what the evaluation cache exploits.
// `eval_root` is drawn once per optimizer run from the master rng.
// Demotable failures become DemotedEvalResult(), after the whole batch and
// in input order, so logs and results do not depend on scheduling;
// non-demotable errors still return their Status.
Result<std::vector<EvalResult>> EvaluateBatch(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, uint64_t eval_root,
    ThreadPool* pool);

// The evaluate-and-record path every optimizer runs on: each evaluation
// runs on its PerEvalRng stream off one eval_root, demotable failures are
// demoted, and everything is recorded into one HpoResult in evaluation
// order. `strategy` and `train` must outlive the recorder.
class EvalRecorder {
 public:
  EvalRecorder(EvalStrategy* strategy, const Dataset& train,
               uint64_t eval_root)
      : strategy_(strategy), train_(train), eval_root_(eval_root) {}

  // One configuration at `budget` on its PerEvalRng stream, demoted as in
  // EvaluateBatch.
  Result<EvalResult> Evaluate(const Configuration& config, size_t budget);

  // A rung at one budget via EvaluateBatch, on `pool` when non-null.
  Result<std::vector<EvalResult>> EvaluateRung(
      const std::vector<Configuration>& configs, size_t budget,
      ThreadPool* pool);

  // The best-so-far rule: a non-failed evaluation that beats the current
  // winner (or is the first) becomes the winner; ties keep the earlier one.
  void KeepBest(const Configuration& config, const EvalResult& eval);

  bool has_best() const { return has_best_; }
  uint64_t eval_root() const { return eval_root_; }
  HpoResult& result() { return result_; }

 private:
  EvalStrategy* strategy_;
  const Dataset& train_;
  uint64_t eval_root_;
  HpoResult result_;
  bool has_best_ = false;
};

}  // namespace bhpo

#endif  // BHPO_HPO_OPTIMIZER_H_
