#ifndef BHPO_ML_RANDOM_FOREST_H_
#define BHPO_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/decision_tree.h"

namespace bhpo {

class ThreadPool;

// Bagged ensemble of CART trees (Breiman-style random forest):
// bootstrap-resampled training sets plus per-split random feature subsets.
// Classification averages leaf class distributions; regression averages
// leaf means.
struct RandomForestConfig {
  int num_trees = 50;
  // Per-tree knobs; tree.max_features = 0 here means the usual
  // sqrt(d) (classification) / d/3 (regression) heuristic.
  DecisionTreeConfig tree;
  bool bootstrap = true;
  uint64_t seed = 0;

  Status Validate() const;
};

class RandomForest : public Model {
 public:
  // With a non-null `pool` (not owned), Fit grows the trees in parallel on
  // it; the fitted forest is bit-identical to a serial fit at any pool size.
  explicit RandomForest(RandomForestConfig config = {},
                        ThreadPool* pool = nullptr)
      : config_(std::move(config)), pool_(pool) {}

  // Builds one SortedColumns index over `train` and grows every tree on it;
  // a tree's bootstrap bag is a list of fit-local row ids. Every bag and
  // tree seed is drawn from the forest's one Rng first, in tree order; the
  // trees are then grown in chunks, each chunk one TreeWorkspace claiming
  // trees from a shared counter, and stored in tree order. On failure the
  // first failing tree's status (in tree order) is returned.
  Status Fit(const DatasetView& train) override;
  // Predictions add each tree's leaf payloads straight into the output, tree
  // by tree, then divide by the tree count.
  std::vector<int> PredictLabels(const FeatureRows& rows) const override;
  std::vector<double> PredictValues(const FeatureRows& rows) const override;
  Matrix PredictProba(const FeatureRows& rows) const;

  // Regression only: per-row ensemble mean and the stddev across trees —
  // the epistemic-uncertainty estimate SMAC-style surrogates need.
  void PredictValuesWithStd(const FeatureRows& rows, std::vector<double>* mean,
                            std::vector<double>* stddev) const;

  size_t num_trees() const { return trees_.size(); }
  bool fitted() const { return fitted_; }

 private:
  friend Status SaveRandomForest(const RandomForest& forest,
                                 std::ostream& out);
  friend Result<std::unique_ptr<RandomForest>> LoadRandomForest(
      std::istream& in);

  RandomForestConfig config_;
  ThreadPool* pool_ = nullptr;
  Task task_ = Task::kClassification;
  int num_classes_ = 0;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  bool fitted_ = false;
};

}  // namespace bhpo

#endif  // BHPO_ML_RANDOM_FOREST_H_
