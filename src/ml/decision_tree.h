#ifndef BHPO_ML_DECISION_TREE_H_
#define BHPO_ML_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "ml/model.h"
#include "ml/sorted_columns.h"

namespace bhpo {

// CART decision tree (gini impurity for classification, variance reduction
// for regression). A second model family behind the Model interface: the
// HPO layer is model-agnostic, and trees exercise a very different
// hyperparameter response surface than the MLP (depth/leaf-size instead of
// solver dynamics).
struct DecisionTreeConfig {
  // 0 = unlimited.
  int max_depth = 0;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  // Features examined per split; 0 = all (a random subset of this size is
  // drawn per split when positive — the random-forest setting).
  int max_features = 0;
  uint64_t seed = 0;

  Status Validate() const;
};

// Targets of one fit's training rows, indexed by fit-local row id (row i of
// the fit's training view). num_classes > 0 trains a classifier on
// `labels`; otherwise a regressor on `values` (a GBDT writes its residuals
// there each round).
struct TreeTargets {
  int num_classes = 0;
  std::vector<int> labels;
  std::vector<double> values;

  // The view's own labels (classification) or targets (regression).
  static TreeTargets Of(const DatasetView& train);
};

// Scratch buffers for growing trees; one per ensemble fit, reused by each
// of its trees in turn, so node splits allocate nothing. Not shareable
// between concurrent fits.
class TreeWorkspace {
 private:
  friend class DecisionTree;
  std::vector<uint32_t> rows_;       // The tree's ids, partitioned by node.
  std::vector<uint32_t> sorted_;     // Two features' node orders, + 3 each.
  // Trees that scan every feature: each feature's order of the tree's ids,
  // d slices of rows_.size() ids (+ 3), partitioned by node like rows_.
  std::vector<uint32_t> kept_;
  std::vector<uint32_t> spill_;      // Right side of a stable partition.
  std::vector<uint8_t> side_;        // Per-fit-id side of the last split.
  std::vector<uint64_t> keys_;       // Packed (rank << 32 | id) sort keys.
  std::vector<uint32_t> counts_;     // Per-fit-id multiplicity (walks).
  std::vector<size_t> features_;     // Candidate features of a node.
  std::vector<uint32_t> class_counts_;  // Node then left class counts.
  std::vector<int32_t> ones_;        // Prefix counts of class 1 (binary).
  std::vector<double> scan_;         // Per-position split statistics.
  std::vector<double> leaf_;         // Leaf payload under construction.
};

class DecisionTree : public Model {
 public:
  // Rows (repeats counted) one tree can train on: 2^26, so that squared
  // row counts stay below 2^53, exact in a double.
  static constexpr size_t kMaxFitRows = size_t{1} << 26;

  explicit DecisionTree(DecisionTreeConfig config = {})
      : config_(std::move(config)) {}

  // Standalone fit: builds the view's SortedColumns and trains on all of
  // its rows.
  Status Fit(const DatasetView& train) override;

  // Ensemble entry point: trains on fit-local rows `ids` of `train` (repeats
  // allowed — a bootstrap bag; a GBDT subsample) with `targets` indexed by
  // fit-local id. `index` is the fit's shared SortedColumns::Build(train).
  // Rejects kMaxFitRows or more ids with InvalidArgument.
  Status FitRows(const DatasetView& train, const SortedColumns& index,
                 const std::vector<uint32_t>& ids, const TreeTargets& targets,
                 TreeWorkspace* workspace);

  // Predictions descend on each row in place, zero gathering.
  std::vector<int> PredictLabels(const FeatureRows& rows) const override;
  std::vector<double> PredictValues(const FeatureRows& rows) const override;
  // Classification: per-class probability rows (leaf class frequencies).
  Matrix PredictProba(const FeatureRows& rows) const;

  // Payload of the leaf `row` descends to: class frequencies
  // (classification) or {mean} (regression). Ensembles add it straight into
  // their outputs.
  const std::vector<double>& Leaf(const double* row) const {
    return Descend(row).value;
  }

  bool fitted() const { return fitted_; }
  Task task() const { return task_; }
  // Classes of a classification tree; 0 for regression.
  int num_classes() const { return num_classes_; }
  size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }

 private:
  friend Status SaveDecisionTree(const DecisionTree& tree, std::ostream& out);
  friend Result<std::unique_ptr<DecisionTree>> LoadDecisionTree(
      std::istream& in);

  struct Node {
    // -1 feature marks a leaf.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    // Leaf payload: class frequencies (classification) or {mean}
    // (regression).
    std::vector<double> value;
  };

  // Recursive builder over the node's fit-local ids `ids[0..n)`, a slice
  // of ws->rows_. A tree that scans every feature reads each feature's
  // order from ws->kept_; any other asks `order`.
  int BuildNodeImpl(NodeOrder& order, const TreeTargets& targets,
                    TreeWorkspace* ws, uint32_t* ids, size_t n, int depth,
                    Rng* rng);
  // Whether every node scans every feature (max_features 0 or >= d).
  bool ScansAllFeatures(size_t d) const {
    return config_.max_features == 0 ||
           static_cast<size_t>(config_.max_features) >= d;
  }
  // Whether a node of n rows at `depth` is a leaf whatever its rows hold.
  bool ForcedLeaf(size_t n, int depth) const {
    return (config_.max_depth > 0 && depth >= config_.max_depth) ||
           n < static_cast<size_t>(config_.min_samples_split) ||
           n < 2 * static_cast<size_t>(config_.min_samples_leaf);
  }
  const Node& Descend(const double* row) const;

  DecisionTreeConfig config_;
  Task task_ = Task::kClassification;
  int num_classes_ = 0;
  std::vector<Node> nodes_;
  int depth_ = 0;
  bool fitted_ = false;
};

}  // namespace bhpo

#endif  // BHPO_ML_DECISION_TREE_H_
