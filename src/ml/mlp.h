#ifndef BHPO_ML_MLP_H_
#define BHPO_ML_MLP_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "data/dataset.h"
#include "ml/activations.h"
#include "ml/model.h"
#include "ml/schedules.h"

namespace bhpo {

// Training algorithm, matching scikit-learn MLP's `solver` hyperparameter
// (Table III searches over lbfgs/sgd/adam).
enum class Solver { kLbfgs, kSgd, kAdam };

Result<Solver> SolverFromString(const std::string& name);
const char* SolverToString(Solver solver);

// Hyperparameters of the multilayer perceptron, mirroring scikit-learn's
// MLPClassifier/MLPRegressor. Field names follow sklearn so the Table III
// search space maps one-to-one.
struct MlpConfig {
  std::vector<size_t> hidden_layer_sizes = {100};
  Activation activation = Activation::kRelu;
  Solver solver = Solver::kAdam;
  // L2 penalty coefficient.
  double alpha = 1e-4;
  // 0 = "auto": min(200, n).
  size_t batch_size = 0;
  LearningRateSchedule learning_rate = LearningRateSchedule::kConstant;
  double learning_rate_init = 1e-3;
  // invscaling exponent.
  double power_t = 0.5;
  // Epochs (sgd/adam) or L-BFGS iterations.
  int max_iter = 80;
  double tol = 1e-4;
  double momentum = 0.9;
  bool nesterovs_momentum = true;
  bool early_stopping = false;
  double validation_fraction = 0.1;
  int n_iter_no_change = 10;
  uint64_t seed = 0;

  Status Validate() const;
};

// Multilayer perceptron for classification (softmax + cross-entropy) or
// regression (identity + half-MSE); the head is chosen by the task of the
// dataset passed to Fit. This is the search target of every experiment in
// the paper.
class MlpModel : public Model {
 public:
  explicit MlpModel(MlpConfig config) : config_(std::move(config)) {}

  const MlpConfig& config() const { return config_; }
  bool fitted() const { return fitted_; }
  // Training loss of the final epoch / L-BFGS iterate.
  double final_loss() const { return final_loss_; }
  // Epochs (sgd/adam) or iterations (lbfgs) actually run.
  int iterations_run() const { return iterations_run_; }

  // Minibatch solvers (sgd/adam) gather only the current batch's rows from
  // the view; L-BFGS materializes the view once (full-batch solver).
  Status Fit(const DatasetView& train) override;
  // Predictions run the network on the rows as one dense matrix: a subset
  // view's rows are gathered once, a matrix or full view is used as is.
  std::vector<int> PredictLabels(const FeatureRows& rows) const override;
  std::vector<double> PredictValues(const FeatureRows& rows) const override;

  // Classification only: row-wise class probabilities.
  Matrix PredictProba(const FeatureRows& rows) const;

  // Regularized loss + gradients over `data` at the current parameters
  // (the L2 term is scaled by 1/data.n(), scikit-learn's per-batch
  // convention). Exposed for the finite-difference gradient tests.
  double ComputeLossAndGradients(const Dataset& data,
                                 std::vector<Matrix>* weight_grads,
                                 std::vector<Matrix>* bias_grads) const;

  const std::vector<Matrix>& weights() const { return weights_; }
  const std::vector<Matrix>& biases() const { return biases_; }
  std::vector<Matrix>* mutable_weights() { return &weights_; }
  std::vector<Matrix>* mutable_biases() { return &biases_; }

  // Initializes parameters for the given feature/output sizes without
  // training (used by tests and by Fit itself).
  void InitializeParameters(size_t num_features, size_t num_outputs,
                            uint64_t seed);

 private:
  friend Status SaveMlp(const MlpModel& model, std::ostream& out);
  friend Result<std::unique_ptr<MlpModel>> LoadMlp(std::istream& in);

  // Per-fit scratch: the gathered minibatch, layer outputs, deltas,
  // gradients and a transposed-weight buffer, sized once per Fit (mlp.cc).
  // Each fit owns its own, so folds training concurrently on a shared pool
  // never share one, and the const Predict* paths stay reentrant.
  struct Workspace;

  // Runs the network on `input`; (*layer_outputs)[l] receives the output of
  // layer l, and layer_outputs->back() holds probabilities
  // (classification) or predictions (regression). The input itself is
  // never copied.
  void Forward(const Matrix& input, std::vector<Matrix>* layer_outputs) const;
  // The network's output on `rows`: probabilities or predictions.
  Matrix Output(const FeatureRows& rows) const;

  // Shared loss/gradient core; exactly one of labels/targets is non-null,
  // matching the task the model was initialized for. Gradients land in
  // ws->weight_grads / ws->bias_grads.
  double LossAndGradients(const Matrix& x, const std::vector<int>* labels,
                          const std::vector<double>* targets,
                          Workspace* ws) const;

  Status FitSgdFamily(const DatasetView& train);
  Status FitLbfgs(const DatasetView& train);

  size_t ParameterCount() const;
  void PackParameters(std::vector<double>* flat) const;
  void UnpackParameters(const std::vector<double>& flat);

  MlpConfig config_;
  Task task_ = Task::kClassification;
  size_t num_outputs_ = 0;
  std::vector<Matrix> weights_;  // layer l: (fan_in x fan_out)
  std::vector<Matrix> biases_;   // layer l: (1 x fan_out)
  bool fitted_ = false;
  double final_loss_ = 0.0;
  int iterations_run_ = 0;
};

}  // namespace bhpo

#endif  // BHPO_ML_MLP_H_
