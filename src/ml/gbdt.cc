#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/activations.h"
#include "ml/losses.h"

namespace bhpo {

Status GbdtConfig::Validate() const {
  if (num_rounds < 1) {
    return Status::InvalidArgument("num_rounds must be >= 1");
  }
  if (!(0.0 < learning_rate && learning_rate <= 1.0)) {
    return Status::InvalidArgument("learning_rate must be in (0, 1]");
  }
  if (max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (!(0.0 < subsample && subsample <= 1.0)) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  return Status::OK();
}

namespace {

// Regression tree fit to the pseudo-residuals in `residuals.values` over
// fit-local rows `rows`, on the fit's shared index.
Result<std::unique_ptr<DecisionTree>> FitResidualTree(
    const DatasetView& train, const SortedColumns& index,
    const TreeTargets& residuals, const std::vector<uint32_t>& rows,
    const GbdtConfig& config, uint64_t seed, TreeWorkspace* workspace) {
  DecisionTreeConfig tree_config;
  tree_config.max_depth = config.max_depth;
  tree_config.min_samples_leaf = config.min_samples_leaf;
  tree_config.seed = seed;
  auto tree = std::make_unique<DecisionTree>(tree_config);
  BHPO_RETURN_NOT_OK(
      tree->FitRows(train, index, rows, residuals, workspace));
  return tree;
}

}  // namespace

Status GbdtModel::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  task_ = train.task();
  num_classes_ = train.is_classification() ? train.num_classes() : 0;
  stages_.clear();

  size_t n = train.n();
  bool classification = train.is_classification();
  size_t outputs = classification ? static_cast<size_t>(num_classes_) : 1;
  Rng rng(config_.seed);

  // Base score: class log-priors (clipped away from empty classes) or the
  // target mean.
  base_score_.assign(outputs, 0.0);
  if (classification) {
    std::vector<size_t> counts = train.ClassCounts();
    for (size_t k = 0; k < outputs; ++k) {
      double p = (static_cast<double>(counts[k]) + 1.0) /
                 (static_cast<double>(n) + static_cast<double>(outputs));
      base_score_[k] = std::log(p);
    }
  } else {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += train.target(i);
    base_score_[0] = mean / static_cast<double>(n);
  }

  // Current additive scores.
  Matrix scores(n, outputs);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < outputs; ++k) scores(i, k) = base_score_[k];
  }

  // Every residual tree of the fit trains on one presorted index; only the
  // residual targets change between trees. Each output has its own residual
  // buffer and workspace, so a round's per-class trees can grow at once.
  BHPO_ASSIGN_OR_RETURN(SortedColumns index, SortedColumns::Build(train));
  std::vector<TreeTargets> residuals(outputs);
  for (TreeTargets& targets : residuals) targets.values.resize(n);
  std::vector<TreeWorkspace> workspaces(outputs);
  std::vector<uint64_t> seeds(outputs);
  size_t rows_per_round = std::max<size_t>(
      2, static_cast<size_t>(config_.subsample * static_cast<double>(n)));

  for (int round = 0; round < config_.num_rounds; ++round) {
    std::vector<uint32_t> rows(std::min(rows_per_round, n));
    if (rows_per_round >= n) {
      std::iota(rows.begin(), rows.end(), 0);
    } else {
      std::vector<size_t> sample =
          rng.SampleWithoutReplacement(n, rows_per_round);
      std::copy(sample.begin(), sample.end(), rows.begin());
    }
    for (uint64_t& seed : seeds) seed = rng.engine()();

    // Softmax probabilities of the round-start scores (classification).
    Matrix proba;
    if (classification) {
      proba = scores;
      SoftmaxRows(&proba);
    }
    std::vector<std::unique_ptr<DecisionTree>> stage(outputs);
    std::vector<Status> statuses(outputs);
    auto grow = [&](size_t k) {
      // Pseudo-residuals: one-hot label minus probability, or target minus
      // score.
      std::vector<double>& values = residuals[k].values;
      for (size_t i = 0; i < n; ++i) {
        values[i] = classification
                        ? (train.label(i) == static_cast<int>(k) ? 1.0 : 0.0) -
                              proba(i, k)
                        : train.target(i) - scores(i, 0);
      }
      Result<std::unique_ptr<DecisionTree>> tree =
          FitResidualTree(train, index, residuals[k], rows, config_, seeds[k],
                          &workspaces[k]);
      if (!tree.ok()) {
        statuses[k] = tree.status();
        return;
      }
      stage[k] = std::move(tree).value();
      // The residuals are spent; the buffer takes the tree's leaf values.
      for (size_t i = 0; i < n; ++i) {
        values[i] = stage[k]->Leaf(train.row(i))[0];
      }
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(outputs, grow);  // Serial for one output.
    } else {
      for (size_t k = 0; k < outputs; ++k) grow(k);
    }
    for (const Status& status : statuses) BHPO_RETURN_NOT_OK(status);
    for (size_t k = 0; k < outputs; ++k) {
      const std::vector<double>& leaves = residuals[k].values;
      for (size_t i = 0; i < n; ++i) {
        scores(i, k) += config_.learning_rate * leaves[i];
      }
    }
    stages_.push_back(std::move(stage));
  }

  // Final training loss for diagnostics.
  if (classification) {
    Matrix proba = scores;
    SoftmaxRows(&proba);
    final_loss_ = CrossEntropyLoss(proba, train.GatherLabels());
  } else {
    final_loss_ = HalfMseLoss(scores, train.GatherTargets());
  }
  fitted_ = true;
  return Status::OK();
}

Matrix GbdtModel::RawScores(const FeatureRows& rows) const {
  size_t outputs = base_score_.size();
  Matrix scores(rows.n(), outputs);
  for (size_t i = 0; i < rows.n(); ++i) {
    for (size_t k = 0; k < outputs; ++k) scores(i, k) = base_score_[k];
  }
  for (const auto& stage : stages_) {
    for (size_t k = 0; k < stage.size(); ++k) {
      for (size_t i = 0; i < rows.n(); ++i) {
        scores(i, k) += config_.learning_rate * stage[k]->Leaf(rows.row(i))[0];
      }
    }
  }
  return scores;
}

Matrix GbdtModel::PredictProba(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix proba = RawScores(rows);
  SoftmaxRows(&proba);
  return proba;
}

std::vector<int> GbdtModel::PredictLabels(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictLabels before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  return RowArgMax(RawScores(rows));
}

std::vector<double> GbdtModel::PredictValues(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  Matrix scores = RawScores(rows);
  std::vector<double> values(scores.rows());
  for (size_t r = 0; r < scores.rows(); ++r) values[r] = scores(r, 0);
  return values;
}

}  // namespace bhpo
