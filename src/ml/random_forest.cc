#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace bhpo {

Status RandomForestConfig::Validate() const {
  if (num_trees < 1) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  return tree.Validate();
}

Status RandomForest::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  task_ = train.task();
  num_classes_ = train.is_classification() ? train.num_classes() : 0;
  trees_.clear();

  // Default per-split feature subsampling heuristics.
  DecisionTreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    double d = static_cast<double>(train.num_features());
    tree_config.max_features = std::max(
        1, static_cast<int>(train.is_classification() ? std::sqrt(d)
                                                      : d / 3.0));
  }

  // One presorted index and one target table serve every tree: bags are
  // lists of fit-local row ids, so no tree gathers or sorts the fold again.
  BHPO_ASSIGN_OR_RETURN(SortedColumns index, SortedColumns::Build(train));
  TreeTargets targets = TreeTargets::Of(train);
  TreeWorkspace workspace;
  size_t n = train.n();
  std::vector<uint32_t> bag(n);
  std::iota(bag.begin(), bag.end(), 0);

  Rng rng(config_.seed);
  for (int t = 0; t < config_.num_trees; ++t) {
    if (config_.bootstrap) {
      for (uint32_t& id : bag) id = static_cast<uint32_t>(rng.UniformIndex(n));
    }
    tree_config.seed = rng.engine()();
    auto tree = std::make_unique<DecisionTree>(tree_config);
    BHPO_RETURN_NOT_OK(tree->FitRows(train, index, bag, targets, &workspace));
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
  return Status::OK();
}

Matrix RandomForest::PredictProba(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix total(features.rows(), num_classes_);
  for (const auto& tree : trees_) {
    total.Add(tree->PredictProba(features));
  }
  total.Scale(1.0 / static_cast<double>(trees_.size()));
  return total;
}

std::vector<int> RandomForest::PredictLabels(const Matrix& features) const {
  Matrix proba = PredictProba(features);
  std::vector<int> labels(proba.rows());
  for (size_t r = 0; r < proba.rows(); ++r) {
    const double* p = proba.Row(r);
    labels[r] = static_cast<int>(
        std::max_element(p, p + proba.cols()) - p);
  }
  return labels;
}

void RandomForest::PredictValuesWithStd(const Matrix& features,
                                        std::vector<double>* mean,
                                        std::vector<double>* stddev) const {
  BHPO_CHECK(fitted_) << "PredictValuesWithStd before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  BHPO_CHECK(mean != nullptr && stddev != nullptr);
  size_t n = features.rows();
  mean->assign(n, 0.0);
  std::vector<double> sum_sq(n, 0.0);
  for (const auto& tree : trees_) {
    std::vector<double> values = tree->PredictValues(features);
    for (size_t i = 0; i < n; ++i) {
      (*mean)[i] += values[i];
      sum_sq[i] += values[i] * values[i];
    }
  }
  double t = static_cast<double>(trees_.size());
  stddev->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    (*mean)[i] /= t;
    double var = sum_sq[i] / t - (*mean)[i] * (*mean)[i];
    (*stddev)[i] = std::sqrt(std::max(0.0, var));
  }
}

std::vector<double> RandomForest::PredictValues(const Matrix& features) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> total(features.rows(), 0.0);
  for (const auto& tree : trees_) {
    std::vector<double> values = tree->PredictValues(features);
    for (size_t i = 0; i < total.size(); ++i) total[i] += values[i];
  }
  for (double& v : total) v /= static_cast<double>(trees_.size());
  return total;
}

Matrix RandomForest::PredictProba(const DatasetView& view) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix total(view.n(), num_classes_);
  for (const auto& tree : trees_) {
    total.Add(tree->PredictProba(view));
  }
  total.Scale(1.0 / static_cast<double>(trees_.size()));
  return total;
}

std::vector<int> RandomForest::PredictLabels(const DatasetView& view) const {
  Matrix proba = PredictProba(view);
  std::vector<int> labels(proba.rows());
  for (size_t r = 0; r < proba.rows(); ++r) {
    const double* p = proba.Row(r);
    labels[r] = static_cast<int>(
        std::max_element(p, p + proba.cols()) - p);
  }
  return labels;
}

std::vector<double> RandomForest::PredictValues(const DatasetView& view) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> total(view.n(), 0.0);
  for (const auto& tree : trees_) {
    std::vector<double> values = tree->PredictValues(view);
    for (size_t i = 0; i < total.size(); ++i) total[i] += values[i];
  }
  for (double& v : total) v /= static_cast<double>(trees_.size());
  return total;
}

}  // namespace bhpo
