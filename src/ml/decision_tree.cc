#include "ml/decision_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace bhpo {

Status DecisionTreeConfig::Validate() const {
  if (max_depth < 0) return Status::InvalidArgument("max_depth must be >= 0");
  if (min_samples_split < 2) {
    return Status::InvalidArgument("min_samples_split must be >= 2");
  }
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (max_features < 0) {
    return Status::InvalidArgument("max_features must be >= 0");
  }
  return Status::OK();
}

TreeTargets TreeTargets::Of(const DatasetView& train) {
  TreeTargets targets;
  if (train.is_classification()) {
    targets.num_classes = train.num_classes();
    targets.labels = train.GatherLabels();
  } else {
    targets.values = train.GatherTargets();
  }
  return targets;
}

namespace {

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // Lower = better.
};

}  // namespace

int DecisionTree::BuildNodeImpl(NodeOrder& order, const TreeTargets& targets,
                                TreeWorkspace* ws, uint32_t* ids, size_t n,
                                int depth, Rng* rng) {
  BHPO_CHECK_GT(n, 0u);
  depth_ = std::max(depth_, depth);

  int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  // Leaf payload (always computed; only leaves keep it).
  std::vector<double>& leaf_value = ws->leaf_;
  uint32_t* node_counts = ws->class_counts_.data();
  bool pure = true;
  if (task_ == Task::kClassification) {
    const int* labels = targets.labels.data();
    std::fill(node_counts, node_counts + num_classes_, 0u);
    int first = labels[ids[0]];
    for (size_t i = 0; i < n; ++i) {
      int y = labels[ids[i]];
      ++node_counts[y];
      pure &= y == first;
    }
    leaf_value.resize(num_classes_);
    for (int c = 0; c < num_classes_; ++c) {
      leaf_value[c] =
          static_cast<double>(node_counts[c]) / static_cast<double>(n);
    }
  } else {
    const double* values = targets.values.data();
    double mean = 0.0;
    double first = values[ids[0]];
    for (size_t i = 0; i < n; ++i) {
      double y = values[ids[i]];
      mean += y;
      pure &= y == first;
    }
    leaf_value.assign(1, mean / static_cast<double>(n));
  }

  bool depth_capped = config_.max_depth > 0 && depth >= config_.max_depth;
  if (pure || depth_capped ||
      n < static_cast<size_t>(config_.min_samples_split) ||
      n < 2 * static_cast<size_t>(config_.min_samples_leaf)) {
    nodes_[node_id].value = leaf_value;
    return node_id;
  }

  // Candidate features: all, or a random subset of max_features.
  const SortedColumns& index = order.index();
  size_t num_features = index.cols();
  std::vector<size_t>& features = ws->features_;
  features.resize(num_features);
  std::iota(features.begin(), features.end(), 0);
  if (config_.max_features > 0 &&
      static_cast<size_t>(config_.max_features) < num_features) {
    rng->Shuffle(&features);
    features.resize(config_.max_features);
  }

  // Best split search over each feature's sorted rows. Position i puts
  // sorted rows [0, i] on the left; it is a candidate when both sides keep
  // min_leaf rows and the values either side of it differ. Each feature
  // scores every position in [begin, end) into `score`, then takes the
  // first position that beats the best so far — the same candidates in the
  // same order, under the same strict `<`, as scoring them one at a time.
  SplitCandidate best;
  size_t min_leaf = static_cast<size_t>(config_.min_samples_leaf);
  size_t begin = min_leaf - 1, end = n - min_leaf;
  double* score = ws->scan_.data();
  int64_t node_sq = 0;
  for (int c = 0; c < num_classes_; ++c) {
    node_sq += int64_t{node_counts[c]} * node_counts[c];
  }
  order.BeginNode(ids, n);
  for (size_t f : features) {
    const uint32_t* sorted = order.SortedBy(f, ids, n);
    const double* value = index.Column(f);

    if (task_ == Task::kClassification) {
      // Gini-weighted child sizes, n_s * (1 - sq_s / (n_s * n_s)) per side
      // s, where sq_s is the side's sum of squared class counts. Counts are
      // integers, so sq_s is kept exactly in an integer and updated per row
      // by (c + 1)^2 = c^2 + 2c + 1: it equals the sum of squares a
      // from-scratch loop over the classes computes in doubles, bit for
      // bit, while n * n < 2^53 (FitRows caps n below 2^26). The first pass
      // carries the counts; the second is elementwise and vectorizes.
      const int* labels = targets.labels.data();
      uint32_t* left_counts = node_counts + num_classes_;
      double* right_sq = score + n;
      std::fill(left_counts, left_counts + num_classes_, 0u);
      int64_t sq_left = 0, sq_right = node_sq;
      for (size_t i = 0; i < end; ++i) {
        int y = labels[sorted[i]];
        int64_t c_left = left_counts[y]++;
        int64_t c_right = node_counts[y] - c_left;
        sq_left += 2 * c_left + 1;
        sq_right -= 2 * c_right - 1;
        score[i] = static_cast<double>(sq_left);
        right_sq[i] = static_cast<double>(sq_right);
      }
      double total = static_cast<double>(n);
      for (int i = static_cast<int>(begin); i < static_cast<int>(end); ++i) {
        double n_left = i + 1;
        double n_right = total - n_left;
        score[i] = n_left * (1.0 - score[i] / (n_left * n_left)) +
                   n_right * (1.0 - right_sq[i] / (n_right * n_right));
      }
    } else {
      // Floating-point prefix sums: their order is part of the result, so
      // they stay one sequential pass, which also scores each position (a
      // separate scoring pass measured no faster; DESIGN.md §9).
      const double* values = targets.values.data();
      double right_sum = 0.0, right_sq = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double y = values[sorted[i]];
        right_sum += y;
        right_sq += y * y;
      }
      double left_sum = 0.0, left_sq = 0.0;
      for (size_t i = 0; i < end; ++i) {
        double y = values[sorted[i]];
        left_sum += y;
        left_sq += y * y;
        right_sum -= y;
        right_sq -= y * y;
        size_t n_left = i + 1, n_right = n - n_left;
        // Weighted child SSE = sum of (sum_sq - sum^2 / n) per side.
        score[i] = (left_sq - left_sum * left_sum / n_left) +
                   (right_sq - right_sum * right_sum / n_right);
      }
    }

    for (size_t i = begin; i < end; ++i) {
      if (score[i] < best.score) {
        double lo = value[sorted[i]];
        double hi = value[sorted[i + 1]];
        // No valid threshold between equal values.
        if (lo != hi) best = {static_cast<int>(f), (lo + hi) / 2.0, score[i]};
      }
    }
  }
  order.EndNode(ids, n);

  if (best.feature < 0) {
    // No valid split (e.g. all features constant): leaf.
    nodes_[node_id].value = leaf_value;
    return node_id;
  }

  // Stable partition of the node's ids by the chosen split: left rows keep
  // their order in place, right rows spill and follow in order.
  const double* value = index.Column(static_cast<size_t>(best.feature));
  uint32_t* spill = ws->spill_.data();
  size_t n_left = 0, n_right = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t id = ids[i];
    if (value[id] <= best.threshold) {
      ids[n_left++] = id;
    } else {
      spill[n_right++] = id;
    }
  }
  std::copy(spill, spill + n_right, ids + n_left);
  BHPO_CHECK(n_left > 0 && n_left < n);

  nodes_[node_id].feature = best.feature;
  nodes_[node_id].threshold = best.threshold;
  int left = BuildNodeImpl(order, targets, ws, ids, n_left, depth + 1, rng);
  int right = BuildNodeImpl(order, targets, ws, ids + n_left, n_right,
                            depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

Status DecisionTree::Fit(const DatasetView& train) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  BHPO_ASSIGN_OR_RETURN(SortedColumns index, SortedColumns::Build(train));
  std::vector<uint32_t> ids(train.n());
  std::iota(ids.begin(), ids.end(), 0);
  TreeWorkspace workspace;
  return FitRows(train, index, ids, TreeTargets::Of(train), &workspace);
}

Status DecisionTree::FitRows(const DatasetView& train,
                             const SortedColumns& index,
                             const std::vector<uint32_t>& ids,
                             const TreeTargets& targets,
                             TreeWorkspace* workspace) {
  BHPO_RETURN_NOT_OK(config_.Validate());
  if (!train.valid() || train.n() == 0 || ids.empty()) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  size_t n_fit = train.n();
  if (n_fit > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many rows for a 32-bit row id");
  }
  // The Gini scan's exact integer sums of squared counts need n * n < 2^53.
  if (ids.size() >= kMaxFitRows) {
    return Status::InvalidArgument("too many rows for one tree: 2^26 or more");
  }
  task_ = targets.num_classes > 0 ? Task::kClassification : Task::kRegression;
  num_classes_ = targets.num_classes;
  BHPO_CHECK_EQ(task_ == Task::kClassification ? targets.labels.size()
                                               : targets.values.size(),
                n_fit);
  for (uint32_t id : ids) BHPO_CHECK_LT(id, n_fit);
  nodes_.clear();
  depth_ = 0;
  Rng rng(config_.seed);

  size_t m = ids.size();
  workspace->rows_.assign(ids.begin(), ids.end());
  // The walk stores 4 ids at a time, up to 3 past the node's last row.
  workspace->sorted_.resize(m + 3);
  workspace->spill_.resize(m);
  workspace->scan_.resize(2 * m);
  workspace->class_counts_.resize(2 * static_cast<size_t>(num_classes_));
  BHPO_CHECK(index.rows() == n_fit && index.cols() == train.num_features())
      << "FitRows needs the fit's SortedColumns";
  workspace->keys_.resize(m);
  workspace->counts_.assign(n_fit, 0);
  NodeOrder order(&index, workspace->sorted_.data(), workspace->keys_.data(),
                  workspace->counts_.data());
  BuildNodeImpl(order, targets, workspace, workspace->rows_.data(), m, 0,
                &rng);
  fitted_ = true;
  return Status::OK();
}

const DecisionTree::Node& DecisionTree::Descend(const double* row) const {
  int node = 0;
  while (nodes_[node].feature >= 0) {
    node = row[nodes_[node].feature] <= nodes_[node].threshold
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return nodes_[node];
}

std::vector<int> DecisionTree::PredictLabels(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictLabels before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  std::vector<int> labels(rows.n());
  for (size_t r = 0; r < rows.n(); ++r) {
    const std::vector<double>& dist = Leaf(rows.row(r));
    labels[r] = ArgMax(dist.data(), dist.size());
  }
  return labels;
}

Matrix DecisionTree::PredictProba(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictProba before Fit";
  BHPO_CHECK(task_ == Task::kClassification);
  Matrix proba(rows.n(), num_classes_);
  for (size_t r = 0; r < rows.n(); ++r) {
    const std::vector<double>& dist = Leaf(rows.row(r));
    for (int c = 0; c < num_classes_; ++c) proba(r, c) = dist[c];
  }
  return proba;
}

std::vector<double> DecisionTree::PredictValues(const FeatureRows& rows) const {
  BHPO_CHECK(fitted_) << "PredictValues before Fit";
  BHPO_CHECK(task_ == Task::kRegression);
  std::vector<double> values(rows.n());
  for (size_t r = 0; r < rows.n(); ++r) values[r] = Leaf(rows.row(r))[0];
  return values;
}

}  // namespace bhpo
