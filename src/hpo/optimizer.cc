#include "hpo/optimizer.h"

#include <limits>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "ml/mlp.h"

namespace bhpo {

bool IsDemotableEvalError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kIoError:
    case StatusCode::kFailedPrecondition:
      return true;
    default:
      return false;
  }
}

EvalResult DemotedEvalResult() {
  EvalResult out;
  out.score = -std::numeric_limits<double>::infinity();
  out.eval_failed = true;
  return out;
}

namespace {

// The one demotion site: converts a demotable failure of `config`'s
// evaluation into the sentinel, passes everything else through.
Result<EvalResult> DemoteFailure(const Configuration& config,
                                 Result<EvalResult> result) {
  if (result.ok()) return result;
  if (!IsDemotableEvalError(result.status())) return result.status();
  BHPO_LOG(kWarning) << "evaluation of " << config.ToString()
                     << " demoted to sentinel score: "
                     << result.status().ToString();
  return DemotedEvalResult();
}

// Appends one evaluation to a run's history, counters and fault report.
void RecordEvaluation(const Configuration& config, const EvalResult& eval,
                      HpoResult* result) {
  result->history.push_back(
      {config, eval.score, eval.budget_used, eval.eval_failed});
  ++result->num_evaluations;
  result->total_instances += eval.budget_used;
  AccumulateFaults(eval, &result->faults);
}

}  // namespace

void AccumulateFaults(const EvalResult& eval, FaultReport* report) {
  if (eval.eval_failed) ++report->failed_evals;
  report->failed_folds += eval.cv.failed_folds;
  report->quarantined_folds += eval.cv.quarantined_folds;
  report->timed_out_folds += eval.cv.timed_out_folds;
  report->fold_retries += eval.cv.fold_retries;
  report->injected_faults += eval.cv.injected_faults;
}

Result<std::vector<EvalResult>> EvaluateBatch(
    EvalStrategy* strategy, const std::vector<Configuration>& configs,
    const Dataset& train, size_t budget, uint64_t eval_root,
    ThreadPool* pool) {
  std::vector<std::optional<Result<EvalResult>>> raw(configs.size());
  auto evaluate_one = [&](size_t i) {
    // Each evaluation owns a stream derived from (root, config, budget) —
    // independent of scheduling, pool size, and position in the batch.
    Rng eval_rng = PerEvalRng(eval_root, configs[i], budget, train.n());
    raw[i] = strategy->Evaluate(configs[i], train, budget, &eval_rng);
  };
  if (pool != nullptr && configs.size() > 1) {
    pool->ParallelFor(configs.size(), evaluate_one);
  } else {
    for (size_t i = 0; i < configs.size(); ++i) evaluate_one(i);
  }

  std::vector<EvalResult> results;
  results.reserve(configs.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    BHPO_CHECK(raw[i].has_value());
    BHPO_ASSIGN_OR_RETURN(EvalResult eval,
                          DemoteFailure(configs[i], std::move(*raw[i])));
    results.push_back(std::move(eval));
  }
  return results;
}

Result<EvalResult> EvalRecorder::Evaluate(const Configuration& config,
                                          size_t budget) {
  Rng eval_rng = PerEvalRng(eval_root_, config, budget, train_.n());
  BHPO_ASSIGN_OR_RETURN(
      EvalResult eval,
      DemoteFailure(config,
                    strategy_->Evaluate(config, train_, budget, &eval_rng)));
  RecordEvaluation(config, eval, &result_);
  return eval;
}

Result<std::vector<EvalResult>> EvalRecorder::EvaluateRung(
    const std::vector<Configuration>& configs, size_t budget,
    ThreadPool* pool) {
  BHPO_ASSIGN_OR_RETURN(
      std::vector<EvalResult> evals,
      EvaluateBatch(strategy_, configs, train_, budget, eval_root_, pool));
  for (size_t i = 0; i < configs.size(); ++i) {
    RecordEvaluation(configs[i], evals[i], &result_);
  }
  return evals;
}

void EvalRecorder::KeepBest(const Configuration& config,
                            const EvalResult& eval) {
  if (eval.eval_failed) return;
  if (has_best_ && !(eval.score > result_.best_score)) return;
  result_.best_score = eval.score;
  result_.best_config = config;
  has_best_ = true;
}

Result<FinalEvaluation> EvaluateFinalConfig(const Configuration& config,
                                            const Dataset& train,
                                            const Dataset& test,
                                            EvalMetric metric,
                                            const FactoryOptions& options,
                                            ThreadPool* pool) {
  BHPO_ASSIGN_OR_RETURN(ModelSpec spec,
                        ModelSpecFromConfiguration(config, options));
  std::unique_ptr<Model> model = BuildModel(spec, options.seed, pool);
  BHPO_RETURN_NOT_OK(model->Fit(train));
  FinalEvaluation out;
  out.train_metric = EvaluateModel(*model, train, metric);
  out.test_metric = EvaluateModel(*model, test, metric);
  return out;
}

}  // namespace bhpo
