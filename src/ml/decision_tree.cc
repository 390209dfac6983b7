#include "ml/decision_tree.h"

#include <algorithm>
#include <cstring>
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

// Two doubles, one per lane (SSE2 on x86-64, portable elsewhere).
using Lanes = double __attribute__((vector_size(16)));

// Whether some score[begin, end) is below `best`: the minimum of the
// scores and `best`, NaN ignored (a NaN compares false, as in the pick),
// taken two lanes at a time in two accumulators, so it vectorizes (minpd)
// where the pick cannot.
bool AnyBelow(const double* score, size_t begin, size_t end, double best) {
  Lanes low_a = {best, best}, low_b = low_a;
  size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    Lanes a, b;
    std::memcpy(&a, score + i, sizeof(a));
    std::memcpy(&b, score + i + 2, sizeof(b));
    low_a = a < low_a ? a : low_a;
    low_b = b < low_b ? b : low_b;
  }
  bool any = low_a[0] < best || low_a[1] < best || low_b[0] < best ||
             low_b[1] < best;
  for (; i < end; ++i) any |= score[i] < best;
  return any;
}

// Regression split scores, the weighted child SSE Σ_s (sum_sq_s − sum_s² /
// n_s), of two candidate features at every position i in [begin, end):
// feature a's into score_a[i] from its node order `a`, feature b's into
// score_b[i]. Each lane runs the one-feature scan: the totals pass, then
// floating-point prefix sums that stay strictly sequential (their order is
// part of the result), in the same operations and order, so each score
// has the bits a one-feature loop gives it. The pair overlaps two
// dependency chains and does both features' divisions in one divpd.
void ScoreRegressionPair(const double* values, const uint32_t* a,
                         const uint32_t* b, size_t n, size_t begin,
                         size_t end, double* score_a, double* score_b) {
  Lanes right_sum = {0.0, 0.0}, right_sq = {0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    Lanes y = {values[a[i]], values[b[i]]};
    right_sum += y;
    right_sq += y * y;
  }
  Lanes left_sum = {0.0, 0.0}, left_sq = {0.0, 0.0};
  for (size_t i = 0; i < end; ++i) {
    Lanes y = {values[a[i]], values[b[i]]};
    left_sum += y;
    left_sq += y * y;
    right_sum -= y;
    right_sq -= y * y;
    if (i < begin) continue;
    double n_left = static_cast<double>(i + 1);
    double n_right = static_cast<double>(n - (i + 1));
    Lanes score = (left_sq - left_sum * left_sum / n_left) +
                  (right_sq - right_sum * right_sum / n_right);
    score_a[i] = score[0];
    score_b[i] = score[1];
  }
}

// Gini-weighted child sizes, Σ_s n_s · (1 − sq_s / (n_s · n_s)) with sq_s
// the side's sum of squared class counts, at every position in [begin,
// end) of a two-class node's order `sorted`; `ones_total` is the node's
// count of class 1. The first pass writes the prefix count of class 1;
// the second derives the four side counts from it and scores elementwise,
// so it vectorizes. Counts and their squares are integers below 2^52
// (FitRows caps n below 2^26), exact in doubles, so sq_s has the bits of
// the K-class scan's exact integer sum.
void ScoreBinaryGini(const int* labels, const uint32_t* sorted, size_t n,
                     size_t begin, size_t end, int32_t ones_total,
                     int32_t* ones, double* score) {
  int32_t count = 0;
  for (size_t i = 0; i < end; ++i) {
    count += labels[sorted[i]];
    ones[i] = count;
  }
  double total = static_cast<double>(n);
  double total_ones = ones_total;
  for (int i = static_cast<int>(begin); i < static_cast<int>(end); ++i) {
    double n_left = i + 1;
    double n_right = total - n_left;
    double left_ones = ones[i];
    double left_zeros = n_left - left_ones;
    double right_ones = total_ones - left_ones;
    double right_zeros = n_right - right_ones;
    double sq_left = left_zeros * left_zeros + left_ones * left_ones;
    double sq_right = right_zeros * right_zeros + right_ones * right_ones;
    score[i] = n_left * (1.0 - sq_left / (n_left * n_left)) +
               n_right * (1.0 - sq_right / (n_right * n_right));
  }
}

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

  if (pure || ForcedLeaf(n, depth)) {
    nodes_[node_id].value = leaf_value;
    return node_id;
  }

  // Candidate features: all, or a random subset of max_features.
  const SortedColumns& index = order.index();
  size_t num_features = index.cols();
  std::vector<size_t>& features = ws->features_;
  features.resize(num_features);
  std::iota(features.begin(), features.end(), 0);
  bool all_features = ScansAllFeatures(num_features);
  if (!all_features) {
    rng->Shuffle(&features);
    features.resize(config_.max_features);
  }

  // Each candidate feature's node order: a tree that scans every feature
  // keeps each feature's order of the node in ws->kept_ (filled at the
  // root, then partitioned at every split); otherwise `order` writes it to
  // `buffer`.
  size_t m = ws->rows_.size();
  size_t offset = static_cast<size_t>(ids - ws->rows_.data());
  auto sorted_by = [&](size_t f, uint32_t* buffer) -> const uint32_t* {
    if (all_features) return ws->kept_.data() + f * m + offset;
    order.SortedBy(f, ids, n, buffer);
    return buffer;
  };

  // Best split search over each feature's sorted rows. Position i puts
  // sorted rows [0, i] on the left; it is a candidate when both sides keep
  // min_leaf rows and the values either side of it differ. Each feature
  // scores every position in [begin, end) into a score array, then takes
  // the first position that beats the best so far — the same candidates in
  // the same order, under the same strict `<`, as scoring them one at a
  // time. Most features beat nothing, so a vectorized check skips the
  // sequential pick unless some score is below the best.
  SplitCandidate best;
  size_t min_leaf = static_cast<size_t>(config_.min_samples_leaf);
  size_t begin = min_leaf - 1, end = n - min_leaf;
  auto pick = [&](size_t f, const uint32_t* sorted, const double* score) {
    if (!AnyBelow(score, begin, end, best.score)) return;
    const double* value = index.Column(f);
    for (size_t i = begin; i < end; ++i) {
      if (score[i] < best.score) {
        double lo = value[sorted[i]];
        double hi = value[sorted[i + 1]];
        // No valid threshold between equal values.
        if (lo != hi) best = {static_cast<int>(f), (lo + hi) / 2.0, score[i]};
      }
    }
  };
  double* score = ws->scan_.data();
  uint32_t* first_order = ws->sorted_.data();
  uint32_t* second_order = first_order + m + 3;
  if (!all_features) order.BeginNode(ids, n);
  if (task_ == Task::kRegression) {
    // Features in pairs, one per lane; an odd last feature pairs with
    // itself and only lane 0 is read.
    const double* values = targets.values.data();
    double* pair_score = score + n;
    for (size_t k = 0; k < features.size(); k += 2) {
      bool paired = k + 1 < features.size();
      const uint32_t* a = sorted_by(features[k], first_order);
      const uint32_t* b = paired ? sorted_by(features[k + 1], second_order) : a;
      ScoreRegressionPair(values, a, b, n, begin, end, score, pair_score);
      pick(features[k], a, score);
      if (paired) pick(features[k + 1], b, pair_score);
    }
  } else if (num_classes_ == 2) {
    const int* labels = targets.labels.data();
    int32_t* ones = ws->ones_.data();
    for (size_t f : features) {
      const uint32_t* sorted = sorted_by(f, first_order);
      ScoreBinaryGini(labels, sorted, n, begin, end,
                      static_cast<int32_t>(node_counts[1]), ones, score);
      pick(f, sorted, score);
    }
  } else {
    // K classes: sq_s is kept exactly in an integer and updated per row by
    // (c + 1)^2 = c^2 + 2c + 1: it equals the sum of squares a
    // from-scratch loop over the classes computes in doubles, bit for bit,
    // while n * n < 2^53 (FitRows caps n below 2^26). The first pass
    // carries the counts; the second is elementwise and vectorizes.
    const int* labels = targets.labels.data();
    uint32_t* left_counts = node_counts + num_classes_;
    double* right_sq = score + n;
    int64_t node_sq = 0;
    for (int c = 0; c < num_classes_; ++c) {
      node_sq += int64_t{node_counts[c]} * node_counts[c];
    }
    double total = static_cast<double>(n);
    for (size_t f : features) {
      const uint32_t* sorted = sorted_by(f, first_order);
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
      for (int i = static_cast<int>(begin); i < static_cast<int>(end); ++i) {
        double n_left = i + 1;
        double n_right = total - n_left;
        score[i] = n_left * (1.0 - score[i] / (n_left * n_left)) +
                   n_right * (1.0 - right_sq[i] / (n_right * n_right));
      }
      pick(f, sorted, score);
    }
  }
  if (!all_features) order.EndNode(ids, n);

  if (best.feature < 0) {
    // No valid split (e.g. all features constant): leaf.
    nodes_[node_id].value = leaf_value;
    return node_id;
  }

  // Stable partition of the node's ids by the chosen split: left rows keep
  // their order in place, right rows follow in order. A tree that scans
  // every feature partitions each feature's kept order the same way,
  // unless both children are leaves anyway.
  const double* value = index.Column(static_cast<size_t>(best.feature));
  uint8_t* side = ws->side_.data();
  for (size_t i = 0; i < n; ++i) {
    side[ids[i]] = !(value[ids[i]] <= best.threshold);
  }
  uint32_t* spill = ws->spill_.data();
  size_t n_left = PartitionBySide(ids, n, side, spill);
  size_t n_right = n - n_left;
  BHPO_CHECK(n_left > 0 && n_left < n);
  if (all_features &&
      !(ForcedLeaf(n_left, depth + 1) && ForcedLeaf(n_right, depth + 1))) {
    for (size_t f = 0; f < num_features; ++f) {
      PartitionBySide(ws->kept_.data() + f * m + offset, n, side, spill);
    }
  }

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
  size_t d = index.cols();
  workspace->rows_.assign(ids.begin(), ids.end());
  // The walk stores 4 ids at a time, up to 3 past the node's last row.
  workspace->sorted_.resize(2 * (m + 3));
  workspace->spill_.resize(m);
  workspace->side_.resize(n_fit);
  workspace->scan_.resize(2 * m);
  workspace->ones_.resize(num_classes_ == 2 ? m : 0);
  workspace->class_counts_.resize(2 * static_cast<size_t>(num_classes_));
  BHPO_CHECK(index.rows() == n_fit && d == train.num_features())
      << "FitRows needs the fit's SortedColumns";
  workspace->keys_.resize(m);
  workspace->counts_.assign(n_fit, 0);
  NodeOrder order(&index, workspace->keys_.data(), workspace->counts_.data());
  if (ScansAllFeatures(d)) {
    // Each feature's order of the root, once; splits then partition it.
    uint32_t* rows = workspace->rows_.data();
    workspace->kept_.resize(d * m + 3);
    order.BeginNode(rows, m);
    for (size_t f = 0; f < d; ++f) {
      order.SortedBy(f, rows, m, workspace->kept_.data() + f * m);
    }
    order.EndNode(rows, m);
  }
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
