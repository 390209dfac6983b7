#ifndef BHPO_ML_GBDT_H_
#define BHPO_ML_GBDT_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "ml/decision_tree.h"

namespace bhpo {

class ThreadPool;

// Gradient-boosted decision trees (Friedman 2001), the library's third
// model family. Regression boosts squared loss on residuals; binary and
// multiclass classification boost the softmax cross-entropy with one
// regression tree per class per round (pseudo-residual y_onehot - p).
// Optional row subsampling gives stochastic gradient boosting.
struct GbdtConfig {
  int num_rounds = 50;
  // Shrinkage applied to every tree's contribution.
  double learning_rate = 0.1;
  // Base-learner depth; boosting favors shallow trees.
  int max_depth = 3;
  int min_samples_leaf = 1;
  // Fraction of rows used per round; 1.0 = all (plain gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 0;

  Status Validate() const;
};

class GbdtModel : public Model {
 public:
  // With a non-null `pool` (not owned), Fit grows each classification
  // round's per-class trees in parallel on it; the fitted model is
  // bit-identical to a serial fit at any pool size.
  explicit GbdtModel(GbdtConfig config = {}, ThreadPool* pool = nullptr)
      : config_(std::move(config)), pool_(pool) {}

  // Builds one SortedColumns index over `train`; every residual tree trains
  // on it through a list of (possibly subsampled) fit-local row ids with
  // the residuals indexed by id. A classification round draws its row
  // sample and then its k tree seeds in class order; class k's residuals
  // read only the round-start softmax, so the k trees are independent and
  // each has its own residual buffer and workspace. Each tree's leaves are
  // then added into its own score column. Regression boosts one tree per
  // round, serially.
  Status Fit(const DatasetView& train) override;
  std::vector<int> PredictLabels(const FeatureRows& rows) const override;
  std::vector<double> PredictValues(const FeatureRows& rows) const override;
  // Classification: softmax probabilities of the boosted scores.
  Matrix PredictProba(const FeatureRows& rows) const;

  bool fitted() const { return fitted_; }
  int rounds_fit() const { return static_cast<int>(stages_.size()); }
  // Training loss after the final round (cross-entropy or half-MSE).
  double final_loss() const { return final_loss_; }

 private:
  friend Status SaveGbdt(const GbdtModel& model, std::ostream& out);
  friend Result<std::unique_ptr<GbdtModel>> LoadGbdt(std::istream& in);

  // Raw additive scores F(x): (n x num_classes) for classification,
  // (n x 1) for regression. Each stage's leaf values are added straight
  // into the scores, stage by stage.
  Matrix RawScores(const FeatureRows& rows) const;

  GbdtConfig config_;
  ThreadPool* pool_ = nullptr;
  Task task_ = Task::kClassification;
  int num_classes_ = 0;
  // Constant initial score (class log-priors / target mean).
  std::vector<double> base_score_;
  // stages_[round][k] = the regression tree for output k at that round.
  std::vector<std::vector<std::unique_ptr<DecisionTree>>> stages_;
  bool fitted_ = false;
  double final_loss_ = 0.0;
};

}  // namespace bhpo

#endif  // BHPO_ML_GBDT_H_
