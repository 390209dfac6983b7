#include "ml/random_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"

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
  size_t n = train.n();
  size_t num_trees = static_cast<size_t>(config_.num_trees);

  // Every random draw happens here, serially and in tree order (bag t, then
  // seed t), so the trees do not depend on which thread grows them.
  std::vector<std::vector<uint32_t>> bags(config_.bootstrap ? num_trees : 1,
                                          std::vector<uint32_t>(n));
  std::vector<uint64_t> seeds(num_trees);
  if (!config_.bootstrap) std::iota(bags[0].begin(), bags[0].end(), 0);
  Rng rng(config_.seed);
  for (size_t t = 0; t < num_trees; ++t) {
    if (config_.bootstrap) {
      for (uint32_t& id : bags[t]) {
        id = static_cast<uint32_t>(rng.UniformIndex(n));
      }
    }
    seeds[t] = rng.engine()();
  }

  trees_.resize(num_trees);
  std::vector<Status> statuses(num_trees);
  std::atomic<size_t> next_tree{0};
  auto grow_chunk = [&](size_t) {
    TreeWorkspace workspace;
    for (size_t t = next_tree.fetch_add(1); t < num_trees;
         t = next_tree.fetch_add(1)) {
      DecisionTreeConfig config = tree_config;
      config.seed = seeds[t];
      trees_[t] = std::make_unique<DecisionTree>(config);
      statuses[t] = trees_[t]->FitRows(
          train, index, bags[config_.bootstrap ? t : 0], targets, &workspace);
    }
  };
  if (pool_ == nullptr) {
    grow_chunk(0);
  } else {
    pool_->ParallelFor(std::min(num_trees, pool_->num_threads() + 1),
                       grow_chunk);
  }
  for (const Status& status : statuses) {
    if (!status.ok()) {
      trees_.clear();
      fitted_ = false;
      return status;
    }
  }
  fitted_ = true;
  return Status::OK();
}

Matrix RandomForest::PredictProba(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix total(rows.n(), num_classes_);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < rows.n(); ++r) {
      const std::vector<double>& dist = tree->Leaf(rows.row(r));
      double* out = total.Row(r);
      for (int c = 0; c < num_classes_; ++c) out[c] += dist[c];
    }
  }
  total.Scale(1.0 / static_cast<double>(trees_.size()));
  return total;
}

std::vector<int> RandomForest::PredictLabels(const FeatureRows& rows) const {
  return RowArgMax(PredictProba(rows));
}

void RandomForest::PredictValuesWithStd(const FeatureRows& rows,
                                        std::vector<double>* mean,
                                        std::vector<double>* stddev) const {
  BHPO_CHECK(fitted_) << "PredictValuesWithStd before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  BHPO_CHECK(mean != nullptr && stddev != nullptr);
  size_t n = rows.n();
  mean->assign(n, 0.0);
  std::vector<double> sum_sq(n, 0.0);
  for (const auto& tree : trees_) {
    for (size_t i = 0; i < n; ++i) {
      double value = tree->Leaf(rows.row(i))[0];
      (*mean)[i] += value;
      sum_sq[i] += value * value;
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

std::vector<double> RandomForest::PredictValues(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> total(rows.n(), 0.0);
  for (const auto& tree : trees_) {
    for (size_t i = 0; i < total.size(); ++i) {
      total[i] += tree->Leaf(rows.row(i))[0];
    }
  }
  for (double& v : total) v /= static_cast<double>(trees_.size());
  return total;
}

}  // namespace bhpo
