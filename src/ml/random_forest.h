#ifndef BHPO_ML_RANDOM_FOREST_H_
#define BHPO_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/decision_tree.h"

namespace bhpo {

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
  explicit RandomForest(RandomForestConfig config = {})
      : config_(std::move(config)) {}

  using Model::Fit;
  using Model::PredictLabels;
  using Model::PredictValues;

  // Builds one SortedColumns index over `train` and grows every tree on it;
  // a tree's bootstrap bag is a list of fit-local row ids.
  Status Fit(const DatasetView& train) override;
  std::vector<int> PredictLabels(const Matrix& features) const override;
  std::vector<double> PredictValues(const Matrix& features) const override;
  std::vector<int> PredictLabels(const DatasetView& view) const override;
  std::vector<double> PredictValues(const DatasetView& view) const override;
  Matrix PredictProba(const Matrix& features) const;
  Matrix PredictProba(const DatasetView& view) const;

  // Regression only: per-row ensemble mean and the stddev across trees —
  // the epistemic-uncertainty estimate SMAC-style surrogates need.
  void PredictValuesWithStd(const Matrix& features, std::vector<double>* mean,
                            std::vector<double>* stddev) const;

  size_t num_trees() const { return trees_.size(); }
  bool fitted() const { return fitted_; }

 private:
  friend Status SaveRandomForest(const RandomForest& forest,
                                 std::ostream& out);
  friend Result<std::unique_ptr<RandomForest>> LoadRandomForest(
      std::istream& in);

  RandomForestConfig config_;
  Task task_ = Task::kClassification;
  int num_classes_ = 0;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  bool fitted_ = false;
};

}  // namespace bhpo

#endif  // BHPO_ML_RANDOM_FOREST_H_
