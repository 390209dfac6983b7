#ifndef BHPO_ML_MODEL_H_
#define BHPO_ML_MODEL_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/dataset_view.h"

namespace bhpo {

// Minimal supervised-model interface the HPO layer trains and scores
// through. Implementations must be fit before prediction; calling the
// prediction method of the wrong task is a programming error (CHECK).
//
// One input type per direction. Training takes a DatasetView, which a whole
// Dataset converts to, so the cross-validation hot path never copies
// feature rows and a caller holding a dataset passes it as is. Prediction
// takes FeatureRows, which a dense Matrix and a DatasetView both convert
// to, so each model writes every prediction body once: it walks rows in
// place (trees, ensembles) or asks for one dense matrix (the MLP's matrix
// products).
class Model {
 public:
  virtual ~Model() = default;

  virtual Status Fit(const DatasetView& train) = 0;

  // Classification: hard labels for each feature row.
  virtual std::vector<int> PredictLabels(const FeatureRows& rows) const = 0;
  // Regression: real-valued predictions for each feature row.
  virtual std::vector<double> PredictValues(const FeatureRows& rows) const = 0;
};

// Index of the first largest of p[0..k): the class a row of scores or
// probabilities picks (std::max_element's tie rule).
int ArgMax(const double* p, size_t k);
// ArgMax of every row of `scores`.
std::vector<int> RowArgMax(const Matrix& scores);

// Which score a dataset is judged by. The paper reports accuracy for the
// balanced classification datasets, (binary) F1 for the imbalanced ones and
// R^2 for regression; kAuto maps classification -> accuracy,
// regression -> R^2.
enum class EvalMetric { kAuto, kAccuracy, kF1, kR2 };

const char* EvalMetricToString(EvalMetric metric);

// Scores a fitted model on `test` with the chosen metric. Higher is always
// better (R^2 can be negative).
double EvaluateModel(const Model& model, const DatasetView& test,
                     EvalMetric metric = EvalMetric::kAuto);

}  // namespace bhpo

#endif  // BHPO_ML_MODEL_H_
