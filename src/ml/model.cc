#include "ml/model.h"

#include <algorithm>

#include "metrics/classification.h"
#include "metrics/regression.h"

namespace bhpo {

int ArgMax(const double* p, size_t k) {
  return static_cast<int>(std::max_element(p, p + k) - p);
}

std::vector<int> RowArgMax(const Matrix& scores) {
  std::vector<int> labels(scores.rows());
  for (size_t r = 0; r < scores.rows(); ++r) {
    labels[r] = ArgMax(scores.Row(r), scores.cols());
  }
  return labels;
}

const char* EvalMetricToString(EvalMetric metric) {
  switch (metric) {
    case EvalMetric::kAuto:
      return "auto";
    case EvalMetric::kAccuracy:
      return "accuracy";
    case EvalMetric::kF1:
      return "f1";
    case EvalMetric::kR2:
      return "r2";
  }
  return "?";
}

double EvaluateModel(const Model& model, const DatasetView& test,
                     EvalMetric metric) {
  if (metric == EvalMetric::kAuto) {
    metric = test.is_classification() ? EvalMetric::kAccuracy
                                      : EvalMetric::kR2;
  }
  switch (metric) {
    case EvalMetric::kAccuracy: {
      BHPO_CHECK(test.is_classification());
      return Accuracy(test.GatherLabels(), model.PredictLabels(test));
    }
    case EvalMetric::kF1: {
      BHPO_CHECK(test.is_classification());
      return PaperF1(test.GatherLabels(), model.PredictLabels(test),
                     test.num_classes());
    }
    case EvalMetric::kR2: {
      BHPO_CHECK(!test.is_classification());
      return R2Score(test.GatherTargets(), model.PredictValues(test));
    }
    case EvalMetric::kAuto:
      break;
  }
  BHPO_CHECK(false) << "unreachable";
  return 0.0;
}

}  // namespace bhpo
