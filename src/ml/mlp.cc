#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/gather.h"
#include "common/rng.h"
#include "data/split.h"
#include "ml/adam.h"
#include "ml/lbfgs.h"
#include "ml/losses.h"
#include "ml/sgd.h"

namespace bhpo {

Result<Solver> SolverFromString(const std::string& name) {
  if (name == "lbfgs") return Solver::kLbfgs;
  if (name == "sgd") return Solver::kSgd;
  if (name == "adam") return Solver::kAdam;
  return Status::InvalidArgument("unknown solver '" + name + "'");
}

const char* SolverToString(Solver solver) {
  switch (solver) {
    case Solver::kLbfgs:
      return "lbfgs";
    case Solver::kSgd:
      return "sgd";
    case Solver::kAdam:
      return "adam";
  }
  return "?";
}

Status MlpConfig::Validate() const {
  if (hidden_layer_sizes.empty()) {
    return Status::InvalidArgument("need at least one hidden layer");
  }
  for (size_t h : hidden_layer_sizes) {
    if (h == 0) return Status::InvalidArgument("hidden layer of size 0");
  }
  if (!(0.0 < learning_rate_init)) {
    return Status::InvalidArgument("learning_rate_init must be positive");
  }
  if (!(0.0 <= alpha)) return Status::InvalidArgument("alpha must be >= 0");
  if (max_iter < 1) return Status::InvalidArgument("max_iter must be >= 1");
  if (!(0.0 <= momentum && momentum < 1.0)) {
    return Status::InvalidArgument("momentum must be in [0, 1)");
  }
  if (!(0.0 < validation_fraction && validation_fraction < 1.0)) {
    return Status::InvalidArgument("validation_fraction must be in (0, 1)");
  }
  if (n_iter_no_change < 1) {
    return Status::InvalidArgument("n_iter_no_change must be >= 1");
  }
  if (!(0.0 <= tol)) return Status::InvalidArgument("tol must be >= 0");
  return Status::OK();
}

void MlpModel::InitializeParameters(size_t num_features, size_t num_outputs,
                                    uint64_t seed) {
  BHPO_CHECK_GT(num_features, 0u);
  BHPO_CHECK_GT(num_outputs, 0u);
  num_outputs_ = num_outputs;

  std::vector<size_t> sizes;
  sizes.push_back(num_features);
  for (size_t h : config_.hidden_layer_sizes) sizes.push_back(h);
  sizes.push_back(num_outputs);

  // Glorot uniform; scikit-learn uses factor 2 for logistic, 6 otherwise.
  double factor = config_.activation == Activation::kLogistic ? 2.0 : 6.0;
  Rng rng(seed);
  weights_.clear();
  biases_.clear();
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    double limit =
        std::sqrt(factor / static_cast<double>(sizes[l] + sizes[l + 1]));
    weights_.push_back(
        Matrix::RandomUniform(sizes[l], sizes[l + 1], &rng, limit));
    biases_.push_back(Matrix::RandomUniform(1, sizes[l + 1], &rng, limit));
  }
}

struct MlpModel::Workspace {
  // Sized for the layers of `weights` and batches of up to max_rows rows.
  Workspace(const std::vector<Matrix>& weights, size_t max_rows) {
    size_t widest = 0;
    size_t largest_hidden_weight = 0;
    for (size_t l = 0; l < weights.size(); ++l) {
      const Matrix& w = weights[l];
      outputs.emplace_back(max_rows, w.cols());
      weight_grads.emplace_back(w.rows(), w.cols());
      bias_grads.emplace_back(1, w.cols());
      widest = std::max(widest, w.cols());
      if (l > 0) {
        largest_hidden_weight = std::max(largest_hidden_weight, w.size());
      }
    }
    delta = Matrix(max_rows, widest);
    back = Matrix(max_rows, widest);
    weight_t = Matrix(1, largest_hidden_weight);
  }

  // Sizes the minibatch buffers for batches of up to max_rows rows with
  // `num_features` features.
  void ReserveBatch(size_t max_rows, size_t num_features, Task task) {
    rows.reserve(max_rows);
    x = Matrix(max_rows, num_features);
    if (task == Task::kClassification) {
      labels.reserve(max_rows);
    } else {
      targets.reserve(max_rows);
    }
  }

  // Gathers view rows positions[0..count) into x and labels / targets.
  void GatherBatch(const DatasetView& view, const size_t* positions,
                   size_t count) {
    const Dataset& parent = view.parent();
    rows.resize(count);
    for (size_t i = 0; i < count; ++i) {
      rows[i] = view.parent_index(positions[i]);
    }
    size_t d = parent.num_features();
    x.Resize(count, d);
    GatherRows(parent.features().data().data(), d, d, rows.data(), count,
               x.data().data());
    if (parent.is_classification()) {
      labels.resize(count);
      for (size_t i = 0; i < count; ++i) labels[i] = parent.label(rows[i]);
    } else {
      targets.resize(count);
      for (size_t i = 0; i < count; ++i) targets[i] = parent.target(rows[i]);
    }
  }

  // The current minibatch (GatherBatch).
  std::vector<size_t> rows;
  Matrix x;
  std::vector<int> labels;
  std::vector<double> targets;

  std::vector<Matrix> outputs;  // layer l: (batch x fan_out)
  Matrix delta;                 // error at the current layer's output
  Matrix back;                  // error propagated to its input
  Matrix weight_t;              // W^T for the backprop product
  std::vector<Matrix> weight_grads;
  std::vector<Matrix> bias_grads;
};

void MlpModel::Forward(const Matrix& input,
                       std::vector<Matrix>* layer_outputs) const {
  BHPO_CHECK(layer_outputs != nullptr);
  BHPO_CHECK(!weights_.empty()) << "Forward before InitializeParameters";
  layer_outputs->resize(weights_.size());
  for (size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& in = l == 0 ? input : (*layer_outputs)[l - 1];
    Matrix& z = (*layer_outputs)[l];
    in.MatMulInto(weights_[l], &z);
    z.AddRowBroadcast(biases_[l]);
    if (l + 1 < weights_.size()) {
      ApplyActivation(config_.activation, &z);
    } else if (task_ == Task::kClassification) {
      SoftmaxRows(&z);
    }  // Regression head is identity.
  }
}

double MlpModel::LossAndGradients(const Matrix& x,
                                  const std::vector<int>* labels,
                                  const std::vector<double>* targets,
                                  Workspace* ws) const {
  BHPO_CHECK(ws != nullptr);
  BHPO_CHECK_GT(x.rows(), 0u);

  Forward(x, &ws->outputs);
  const Matrix& output = ws->outputs.back();

  double inv_n = 1.0 / static_cast<double>(x.rows());
  double loss;
  if (task_ == Task::kClassification) {
    BHPO_CHECK(labels != nullptr);
    loss = CrossEntropyLoss(output, *labels);
    OutputDeltaClassification(output, *labels, &ws->delta);
  } else {
    BHPO_CHECK(targets != nullptr);
    loss = HalfMseLoss(output, *targets);
    OutputDeltaRegression(output, *targets, &ws->delta);
  }
  // L2 penalty (weights only, like scikit-learn).
  double l2 = 0.0;
  for (const Matrix& w : weights_) l2 += w.SumSquares();
  loss += 0.5 * config_.alpha * l2 * inv_n;

  for (size_t l = weights_.size(); l-- > 0;) {
    const Matrix& input = l == 0 ? x : ws->outputs[l - 1];
    input.TransposeMatMulInto(ws->delta, &ws->weight_grads[l]);
    ws->weight_grads[l].AddScaled(weights_[l], config_.alpha * inv_n);
    ws->delta.ColSumsInto(&ws->bias_grads[l]);
    if (l > 0) {
      ws->delta.MatMulTransposeInto(weights_[l], &ws->weight_t, &ws->back);
      MultiplyByActivationDerivative(config_.activation, input, &ws->back);
      std::swap(ws->delta, ws->back);
    }
  }
  return loss;
}

double MlpModel::ComputeLossAndGradients(
    const Dataset& data, std::vector<Matrix>* weight_grads,
    std::vector<Matrix>* bias_grads) const {
  BHPO_CHECK(weight_grads != nullptr && bias_grads != nullptr);
  Workspace ws(weights_, data.n());
  double loss =
      task_ == Task::kClassification
          ? LossAndGradients(data.features(), &data.labels(), nullptr, &ws)
          : LossAndGradients(data.features(), nullptr, &data.targets(), &ws);
  *weight_grads = std::move(ws.weight_grads);
  *bias_grads = std::move(ws.bias_grads);
  return loss;
}

Status MlpModel::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  task_ = train.task();
  size_t num_outputs = train.is_classification()
                           ? static_cast<size_t>(train.num_classes())
                           : 1;
  InitializeParameters(train.num_features(), num_outputs, config_.seed);
  fitted_ = true;  // Parameters exist; prediction is valid from here on.
  iterations_run_ = 0;

  if (config_.solver == Solver::kLbfgs) {
    return FitLbfgs(train);
  }
  return FitSgdFamily(train);
}

Status MlpModel::FitSgdFamily(const DatasetView& train) {
  size_t n = train.n();
  size_t batch = config_.batch_size == 0
                     ? std::min<size_t>(200, n)
                     : std::min(config_.batch_size, n);

  // Optional validation holdout for early stopping. The holdout is an
  // index-level split of the view; only the small validation side is
  // materialized (it is scored every epoch), the training side stays a
  // view.
  DatasetView fit_view = train;
  Dataset val_set;
  bool use_validation = config_.early_stopping && n >= 10;
  if (use_validation) {
    Rng split_rng(config_.seed + 1);
    BHPO_ASSIGN_OR_RETURN(
        IndexSplit holdout,
        SplitViewIndices(train, config_.validation_fraction, &split_rng,
                         /*stratified=*/train.is_classification()));
    val_set = train.ViewOf(holdout.test).Materialize();
    fit_view = train.ViewOf(holdout.train);
    batch = std::min(batch, fit_view.n());
  }

  LearningRate lr(config_.learning_rate, config_.learning_rate_init,
                  config_.power_t);
  SgdUpdater weight_sgd(config_.momentum, config_.nesterovs_momentum);
  SgdUpdater bias_sgd(config_.momentum, config_.nesterovs_momentum);
  AdamUpdater weight_adam;
  AdamUpdater bias_adam;

  Rng shuffle_rng(config_.seed + 2);
  std::vector<size_t> order(fit_view.n());
  std::iota(order.begin(), order.end(), 0);

  double best_val_score = -1e300;
  double best_train_loss = 1e300;
  int stall = 0;
  std::vector<Matrix> best_weights, best_biases;
  Workspace ws(weights_, batch);
  ws.ReserveBatch(batch, fit_view.num_features(), task_);

  for (int epoch = 0; epoch < config_.max_iter; ++epoch) {
    shuffle_rng.Shuffle(&order);
    double loss_sum = 0.0;
    for (size_t start = 0; start < order.size(); start += batch) {
      size_t count = std::min(batch, order.size() - start);
      ws.GatherBatch(fit_view, order.data() + start, count);
      double batch_loss =
          task_ == Task::kClassification
              ? LossAndGradients(ws.x, &ws.labels, nullptr, &ws)
              : LossAndGradients(ws.x, nullptr, &ws.targets, &ws);
      loss_sum += batch_loss * static_cast<double>(count);

      double step = lr.NextUpdateRate();
      if (config_.solver == Solver::kSgd) {
        weight_sgd.Step(&weights_, ws.weight_grads, step);
        bias_sgd.Step(&biases_, ws.bias_grads, step);
      } else {
        weight_adam.Step(&weights_, ws.weight_grads, step);
        bias_adam.Step(&biases_, ws.bias_grads, step);
      }
    }
    double epoch_loss = loss_sum / static_cast<double>(fit_view.n());
    final_loss_ = epoch_loss;
    iterations_run_ = epoch + 1;

    if (!std::isfinite(epoch_loss)) {
      return Status::Internal("training diverged (non-finite loss)");
    }
    if (!lr.ReportEpochLoss(epoch_loss, config_.tol)) break;

    if (use_validation) {
      double score = EvaluateModel(*this, val_set);
      if (score > best_val_score + config_.tol) {
        best_val_score = score;
        best_weights = weights_;
        best_biases = biases_;
        stall = 0;
      } else {
        if (++stall >= config_.n_iter_no_change) break;
      }
    } else {
      if (epoch_loss < best_train_loss - config_.tol) {
        best_train_loss = epoch_loss;
        stall = 0;
      } else {
        if (++stall >= config_.n_iter_no_change) break;
      }
    }
  }

  if (use_validation && !best_weights.empty()) {
    weights_ = std::move(best_weights);
    biases_ = std::move(best_biases);
  }
  return Status::OK();
}

size_t MlpModel::ParameterCount() const {
  size_t count = 0;
  for (const Matrix& w : weights_) count += w.size();
  for (const Matrix& b : biases_) count += b.size();
  return count;
}

void MlpModel::PackParameters(std::vector<double>* flat) const {
  flat->clear();
  flat->reserve(ParameterCount());
  for (const Matrix& w : weights_) {
    flat->insert(flat->end(), w.data().begin(), w.data().end());
  }
  for (const Matrix& b : biases_) {
    flat->insert(flat->end(), b.data().begin(), b.data().end());
  }
}

void MlpModel::UnpackParameters(const std::vector<double>& flat) {
  BHPO_CHECK_EQ(flat.size(), ParameterCount());
  size_t pos = 0;
  for (Matrix& w : weights_) {
    std::copy(flat.begin() + pos, flat.begin() + pos + w.size(),
              w.data().begin());
    pos += w.size();
  }
  for (Matrix& b : biases_) {
    std::copy(flat.begin() + pos, flat.begin() + pos + b.size(),
              b.data().begin());
    pos += b.size();
  }
}

Status MlpModel::FitLbfgs(const DatasetView& view) {
  // L-BFGS is a full-batch solver: every objective evaluation reads the
  // whole training set, so a subset view is materialized once up front
  // instead of gathering per evaluation. The identity view trains straight
  // off the parent.
  Dataset materialized;
  if (!view.is_full()) materialized = view.Materialize();
  const Dataset& train = view.is_full() ? view.parent() : materialized;

  std::vector<double> x;
  PackParameters(&x);

  Workspace ws(weights_, train.n());
  ObjectiveFn objective = [&](const std::vector<double>& params,
                              std::vector<double>* grad) {
    UnpackParameters(params);
    double loss =
        task_ == Task::kClassification
            ? LossAndGradients(train.features(), &train.labels(), nullptr, &ws)
            : LossAndGradients(train.features(), nullptr, &train.targets(),
                               &ws);
    grad->clear();
    grad->reserve(params.size());
    for (const Matrix& g : ws.weight_grads) {
      grad->insert(grad->end(), g.data().begin(), g.data().end());
    }
    for (const Matrix& g : ws.bias_grads) {
      grad->insert(grad->end(), g.data().begin(), g.data().end());
    }
    return loss;
  };

  LbfgsOptions options;
  options.max_iterations = config_.max_iter;
  options.function_tolerance = config_.tol * 1e-3;
  BHPO_ASSIGN_OR_RETURN(LbfgsSummary summary,
                        MinimizeLbfgs(objective, &x, options));
  UnpackParameters(x);
  final_loss_ = summary.final_objective;
  iterations_run_ = summary.iterations;
  if (!std::isfinite(final_loss_)) {
    return Status::Internal("lbfgs diverged (non-finite loss)");
  }
  if (!std::isfinite(summary.final_gradient_norm)) {
    return Status::Internal("lbfgs diverged (non-finite gradient)");
  }
  return Status::OK();
}

std::vector<int> MlpModel::PredictLabels(const FeatureRows& rows) const {
  return RowArgMax(PredictProba(rows));
}

Matrix MlpModel::Output(const FeatureRows& rows) const {
  Matrix gathered;
  std::vector<Matrix> outs;
  Forward(rows.Dense(&gathered), &outs);
  return std::move(outs.back());
}

Matrix MlpModel::PredictProba(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  return Output(rows);
}

std::vector<double> MlpModel::PredictValues(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  Matrix out = Output(rows);
  std::vector<double> values(out.rows());
  for (size_t r = 0; r < out.rows(); ++r) values[r] = out(r, 0);
  return values;
}

}  // namespace bhpo
