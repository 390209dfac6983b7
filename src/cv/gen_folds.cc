#include "cv/gen_folds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "data/split.h"

namespace bhpo {

Result<size_t> GenFoldsOptions::NumFolds() const {
  if (k_spe > std::numeric_limits<size_t>::max() - k_gen) {
    return Status::InvalidArgument("k_gen + k_spe overflows");
  }
  return k_gen + k_spe;
}

Result<FoldSet> GenFolds(const Grouping& grouping,
                         const std::vector<size_t>& subset,
                         const GenFoldsOptions& options, Rng* rng) {
  BHPO_ASSIGN_OR_RETURN(size_t k, options.NumFolds());
  if (k < 2) return Status::InvalidArgument("k_gen + k_spe must be >= 2");
  if (subset.size() < k) {
    return Status::InvalidArgument("subset smaller than fold count");
  }
  if (options.special_bias <= 0.0 || options.special_bias > 1.0) {
    return Status::InvalidArgument("special_bias must be in (0, 1]");
  }
  if (rng == nullptr) return Status::InvalidArgument("null rng");

  size_t v = static_cast<size_t>(grouping.num_groups);
  // Shuffled per-group pools, consumed from the back.
  std::vector<std::vector<size_t>> pools = grouping.MembersWithin(subset);
  for (auto& pool : pools) rng->Shuffle(&pool);

  // Exact fold quotas that sum to |subset| (first folds take the
  // remainder).
  std::vector<size_t> quotas(k, subset.size() / k);
  for (size_t f = 0; f < subset.size() % k; ++f) ++quotas[f];

  FoldSet out;
  out.folds.resize(k);

  auto pop_from = [&pools](size_t g, size_t count,
                           std::vector<size_t>* fold) {
    count = std::min(count, pools[g].size());
    for (size_t i = 0; i < count; ++i) {
      fold->push_back(pools[g].back());
      pools[g].pop_back();
    }
    return count;
  };

  // Special folds first so their home-group draws cannot be starved by the
  // general folds. Fold slot k_gen + j is biased toward group j % v.
  for (size_t j = 0; j < options.k_spe; ++j) {
    size_t slot = options.k_gen + j;
    size_t home = j % v;
    size_t target = quotas[slot];
    std::vector<size_t>* fold = &out.folds[slot];

    size_t want_home = static_cast<size_t>(
        std::llround(options.special_bias * static_cast<double>(target)));
    pop_from(home, want_home, fold);

    // The stratified remainder comes from the other groups proportionally
    // to what they still hold.
    if (fold->size() < target) {
      std::vector<double> weights(v, 0.0);
      for (size_t g = 0; g < v; ++g) {
        if (g != home) weights[g] = static_cast<double>(pools[g].size());
      }
      double total = 0.0;
      for (double w : weights) total += w;
      if (total > 0.0) {
        std::vector<size_t> share = Apportion(target - fold->size(), weights);
        for (size_t g = 0; g < v; ++g) pop_from(g, share[g], fold);
      }
    }
    // Backfill from any non-empty pool (home included) if rounding or
    // exhausted groups left the fold short.
    for (size_t g = 0; fold->size() < target && g < v; ++g) {
      pop_from(g, target - fold->size(), fold);
    }
  }

  // General folds: deal every remaining instance group-by-group with a
  // rolling cursor, i.e. a group-stratified split of the leftovers.
  if (options.k_gen > 0) {
    size_t cursor = rng->UniformIndex(options.k_gen);
    for (size_t g = 0; g < v; ++g) {
      for (size_t idx : pools[g]) {
        out.folds[cursor % options.k_gen].push_back(idx);
        ++cursor;
      }
      pools[g].clear();
    }
  } else {
    // All-special configuration (Figure 6's (0,5) point): append leftovers
    // round-robin to the special folds.
    size_t cursor = 0;
    for (size_t g = 0; g < v; ++g) {
      for (size_t idx : pools[g]) {
        out.folds[cursor % k].push_back(idx);
        ++cursor;
      }
      pools[g].clear();
    }
  }

  BHPO_RETURN_NOT_OK(out.Validate(grouping.group_of.size()));
  BHPO_CHECK_EQ(out.TotalSize(), subset.size());
  return out;
}

Result<FoldSet> GroupedFoldBuilder::Build(const Dataset& data,
                                          const std::vector<size_t>& subset,
                                          size_t k, Rng* rng) const {
  (void)data;
  if (k != options_.k_gen + options_.k_spe) {
    return Status::InvalidArgument(
        "GroupedFoldBuilder: k must equal k_gen + k_spe");
  }
  return GenFolds(*grouping_, subset, options_, rng);
}

}  // namespace bhpo
