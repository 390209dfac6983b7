#include "cv/grouping.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cluster/affinity_propagation.h"
#include "cluster/balanced_kmeans.h"
#include "cluster/kmeans.h"
#include "cluster/meanshift.h"
#include "cv/stratified_kfold.h"
#include "data/split.h"

namespace bhpo {

std::vector<int> EffectiveLabels(const Dataset& data,
                                 const GroupingOptions& options,
                                 int* num_effective_classes) {
  BHPO_CHECK(num_effective_classes != nullptr);
  if (!data.is_classification()) {
    // Regression: quantile-bin targets into pseudo-classes (III-A).
    std::vector<int> bins = StratumLabels(data, options.regression_bins);
    int max_bin = 0;
    for (int b : bins) max_bin = std::max(max_bin, b);
    *num_effective_classes = max_bin + 1;
    return bins;
  }

  // Classification: merge classes smaller than rare_class_ratio * n / u
  // into one rare pseudo-class.
  std::vector<size_t> counts = DatasetView(data).ClassCounts();
  int u = data.num_classes();
  double threshold = options.rare_class_ratio * static_cast<double>(data.n()) /
                     static_cast<double>(u);
  std::vector<int> remap(u, -1);
  int next = 0;
  int rare_id = -1;
  for (int c = 0; c < u; ++c) {
    if (static_cast<double>(counts[c]) < threshold) {
      if (rare_id < 0) rare_id = next++;
      remap[c] = rare_id;
    } else {
      remap[c] = next++;
    }
  }
  std::vector<int> labels(data.n());
  for (size_t i = 0; i < data.n(); ++i) labels[i] = remap[data.label(i)];
  *num_effective_classes = next;
  return labels;
}

namespace {

// Feature clustering step: returns per-instance cluster ids in
// [0, num_groups). Balanced k-means is the default; mean shift discovers
// its own mode count, which is then reduced to num_groups by clustering
// the modes.
// Reduces a variable-cardinality clustering (mean shift / affinity
// propagation) to exactly num_groups ids by k-means over the cluster
// centers; returns empty when there are too few source clusters.
Result<std::vector<int>> ReduceClustersToGroups(
    const Dataset& data, const Matrix& centers,
    const std::vector<int>& assignments, const GroupingOptions& options) {
  if (centers.rows() < static_cast<size_t>(options.num_groups)) {
    return std::vector<int>();
  }
  KMeansOptions km;
  km.k = options.num_groups;
  km.seed = options.seed;
  km.max_iterations = options.kmeans_iterations;
  BHPO_ASSIGN_OR_RETURN(KMeansResult merged, KMeans(centers, km));
  std::vector<int> clusters(data.n());
  for (size_t i = 0; i < data.n(); ++i) {
    clusters[i] = merged.assignments[assignments[i]];
  }
  return clusters;
}

Result<std::vector<int>> ClusterFeatures(const Dataset& data,
                                         const GroupingOptions& options) {
  if (options.clusterer == GroupingOptions::Clusterer::kAffinityPropagation) {
    BHPO_ASSIGN_OR_RETURN(AffinityPropagationResult ap,
                          AffinityPropagation(data.features()));
    Matrix exemplars(ap.exemplars.size(), data.num_features());
    for (size_t e = 0; e < ap.exemplars.size(); ++e) {
      const double* src = data.features().Row(ap.exemplars[e]);
      for (size_t c = 0; c < data.num_features(); ++c) {
        exemplars(e, c) = src[c];
      }
    }
    BHPO_ASSIGN_OR_RETURN(
        std::vector<int> clusters,
        ReduceClustersToGroups(data, exemplars, ap.assignments, options));
    if (!clusters.empty()) return clusters;
    // Too few exemplars: fall through to balanced k-means.
  }
  if (options.clusterer == GroupingOptions::Clusterer::kMeanShift) {
    MeanShiftOptions ms;
    ms.seed = options.seed;
    BHPO_ASSIGN_OR_RETURN(MeanShiftResult shift,
                          MeanShift(data.features(), ms));
    size_t modes = shift.modes.rows();
    if (modes >= static_cast<size_t>(options.num_groups)) {
      KMeansOptions km;
      km.k = options.num_groups;
      km.seed = options.seed;
      km.max_iterations = options.kmeans_iterations;
      BHPO_ASSIGN_OR_RETURN(KMeansResult mode_clusters,
                            KMeans(shift.modes, km));
      std::vector<int> clusters(data.n());
      for (size_t i = 0; i < data.n(); ++i) {
        clusters[i] = mode_clusters.assignments[shift.assignments[i]];
      }
      return clusters;
    }
    // Too few modes: fall through to balanced k-means.
  }

  BalancedKMeansOptions bk;
  bk.k = options.num_groups;
  bk.min_size_ratio = options.min_cluster_ratio;
  bk.seed = options.seed;
  bk.kmeans.max_iterations = options.kmeans_iterations;
  BHPO_ASSIGN_OR_RETURN(BalancedKMeansResult result,
                        BalancedKMeans(data.features(), bk));
  return result.assignments;
}

}  // namespace

std::vector<std::vector<size_t>> Grouping::MembersWithin(
    const std::vector<size_t>& subset) const {
  std::vector<std::vector<size_t>> out(num_groups);
  for (size_t idx : subset) {
    BHPO_CHECK_LT(idx, group_of.size());
    out[group_of[idx]].push_back(idx);
  }
  return out;
}

Result<Grouping> BuildGrouping(const Dataset& data,
                               const GroupingOptions& options) {
  if (options.num_groups < 2) {
    return Status::InvalidArgument("num_groups must be >= 2");
  }
  if (data.n() < static_cast<size_t>(options.num_groups)) {
    return Status::InvalidArgument("fewer instances than groups");
  }

  Grouping grouping;
  grouping.num_groups = options.num_groups;
  grouping.effective_labels =
      EffectiveLabels(data, options, &grouping.num_effective_classes);

  BHPO_ASSIGN_OR_RETURN(std::vector<int> clusters,
                        ClusterFeatures(data, options));

  int v = options.num_groups;
  int u = grouping.num_effective_classes;

  // Class-by-cluster contingency (Operation 1 line 3).
  grouping.counts.assign(u, std::vector<size_t>(v, 0));
  for (size_t i = 0; i < data.n(); ++i) {
    ++grouping.counts[grouping.effective_labels[i]][clusters[i]];
  }

  // s1: each cluster's top-k classes stay with that cluster's group
  // (Operation 1 lines 6-10). k scales with the class/group ratio.
  int top_k = std::max(1, (u + v - 1) / v);
  std::vector<std::vector<char>> class_kept(
      v, std::vector<char>(u, 0));  // [group][class]
  for (int j = 0; j < v; ++j) {
    std::vector<int> class_order(u);
    std::iota(class_order.begin(), class_order.end(), 0);
    std::stable_sort(class_order.begin(), class_order.end(),
                     [&](int a, int b) {
                       return grouping.counts[a][j] > grouping.counts[b][j];
                     });
    for (int r = 0; r < top_k && r < u; ++r) {
      if (grouping.counts[class_order[r]][j] > 0) {
        class_kept[j][class_order[r]] = 1;
      }
    }
  }

  grouping.group_of.assign(data.n(), -1);
  for (size_t i = 0; i < data.n(); ++i) {
    int j = clusters[i];
    if (class_kept[j][grouping.effective_labels[i]]) {
      grouping.group_of[i] = j;
    }
  }

  // s2: the remaining instances join the group whose cluster holds the
  // largest share of their class, ties broken by their own cluster
  // (Operation 1 lines 12-16).
  for (size_t i = 0; i < data.n(); ++i) {
    if (grouping.group_of[i] >= 0) continue;
    int cls = grouping.effective_labels[i];
    int best = clusters[i];
    size_t best_count = grouping.counts[cls][best];
    for (int j = 0; j < v; ++j) {
      if (grouping.counts[cls][j] > best_count) {
        best_count = grouping.counts[cls][j];
        best = j;
      }
    }
    grouping.group_of[i] = best;
  }

  grouping.members.assign(v, {});
  for (size_t i = 0; i < data.n(); ++i) {
    grouping.members[grouping.group_of[i]].push_back(i);
  }

  // Degenerate safeguard: if s1/s2 emptied a group (possible when one class
  // dominates every cluster), fall back to raw cluster ids so downstream
  // fold construction always has v non-empty groups to draw from.
  bool any_empty = false;
  for (const auto& m : grouping.members) any_empty |= m.empty();
  if (any_empty) {
    grouping.group_of = clusters;
    grouping.members.assign(v, {});
    for (size_t i = 0; i < data.n(); ++i) {
      grouping.members[clusters[i]].push_back(i);
    }
  }
  return grouping;
}

std::vector<size_t> SampleFromGroups(const Grouping& grouping, size_t count,
                                     Rng* rng) {
  BHPO_CHECK(rng != nullptr);
  size_t n = grouping.group_of.size();
  count = std::min(count, n);

  std::vector<double> sizes;
  sizes.reserve(grouping.members.size());
  for (const auto& m : grouping.members) {
    sizes.push_back(static_cast<double>(m.size()));
  }
  std::vector<size_t> quota = Apportion(count, sizes);

  std::vector<size_t> out;
  out.reserve(count);
  for (size_t g = 0; g < grouping.members.size(); ++g) {
    const auto& pool = grouping.members[g];
    size_t take = std::min(quota[g], pool.size());
    std::vector<size_t> picks = rng->SampleWithoutReplacement(pool.size(),
                                                              take);
    for (size_t p : picks) out.push_back(pool[p]);
  }
  // Backfill if rounding starved some quota against a small group.
  if (out.size() < count) {
    std::vector<char> taken(n, 0);
    for (size_t i : out) taken[i] = 1;
    std::vector<size_t> rest;
    for (size_t i = 0; i < n; ++i) {
      if (!taken[i]) rest.push_back(i);
    }
    rng->Shuffle(&rest);
    for (size_t i = 0; out.size() < count && i < rest.size(); ++i) {
      out.push_back(rest[i]);
    }
  }
  rng->Shuffle(&out);
  return out;
}

}  // namespace bhpo
