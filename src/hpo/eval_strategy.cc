#include "hpo/eval_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "cv/stratified_kfold.h"
#include "cv/kfold.h"
#include "data/split.h"
#include "hpo/eval_cache.h"

namespace bhpo {

size_t ClampBudget(size_t budget, size_t n, size_t num_folds) {
  if (n == 0) return 0;
  size_t k = std::max<size_t>(num_folds, 1);
  // floor = min(n, 2k) without computing 2k (which can overflow size_t):
  // k > n/2 (integer division) iff 2k > n for even n and 2k >= n for odd n;
  // in both cases min(n, 2k) == n.
  size_t floor = (k > n / 2) ? n : 2 * k;
  return std::max(floor, std::min(budget, n));
}

Rng PerEvalRng(uint64_t eval_root, const Configuration& config, size_t budget,
               size_t n) {
  // Fold the budget at n so every over-asked budget (common at the top
  // rung) shares the full-budget stream — and therefore its cache entry.
  size_t effective = std::min(budget, n);
  return Rng(MixSeed(MixSeed(eval_root, config.Hash()), effective));
}

uint64_t EvalSubsetId(const Rng& rng, size_t budget, size_t n) {
  // The budget and n are mixed in on top of the stream fingerprint because
  // a decorator may see arbitrary caller streams: the same rng state asked
  // to evaluate at a different budget is a different evaluation.
  size_t effective = std::min(budget, n);
  return MixSeed(MixSeed(rng.StateFingerprint(), effective), n);
}

namespace {

// Derives a per-evaluation model seed from the shared rng so repeated
// evaluations differ but the whole search stays deterministic under a
// fixed master seed.
FactoryOptions PerEvalFactory(const FactoryOptions& base, Rng* rng) {
  FactoryOptions out = base;
  out.seed = rng->engine()();
  return out;
}

std::vector<size_t> AllIndices(size_t n) {
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

// Injects every fold already cached under (config_hash, subset_id) into
// cv_options->precomputed so CrossValidate skips those fits. Returns the
// injected mask (all false when there is no cache).
std::vector<bool> InjectCachedFolds(EvalCache* cache, uint64_t config_hash,
                                    uint64_t subset_id, size_t k,
                                    CvOptions* cv_options) {
  std::vector<bool> injected(k, false);
  if (cache == nullptr) return injected;
  for (size_t f = 0; f < k; ++f) {
    std::optional<EvalCache::FoldScore> hit =
        cache->LookupFold(config_hash, subset_id, static_cast<uint32_t>(f));
    if (!hit.has_value()) continue;
    cv_options->precomputed.push_back(
        PrecomputedFold{f, hit->score, hit->failed});
    injected[f] = true;
  }
  return injected;
}

// Stores the folds this evaluation actually computed and fills the
// result's hit/miss counters. Skipped (empty) folds cost nothing and are
// not cached. Failure semantics: deterministic failures (permanent fit
// failures, quarantined non-finite scores) ARE memoized — replaying them is
// bit-identical and skips a fit that would fail again — but transient
// failures (retry-exhausted Unavailable, timeouts) are NOT: the next
// evaluation of this (config, subset) must re-attempt the fold.
void StoreComputedFolds(EvalCache* cache, uint64_t config_hash,
                        uint64_t subset_id, const std::vector<bool>& injected,
                        EvalResult* result) {
  if (cache == nullptr) return;
  const std::vector<FoldOutcome>& folds = result->cv.folds;
  for (size_t f = 0; f < folds.size(); ++f) {
    if (folds[f].status == FoldStatus::kSkipped) continue;
    if (f < injected.size() && injected[f]) {
      ++result->cache_fold_hits;
      continue;
    }
    ++result->cache_fold_misses;
    if (folds[f].transient_failure ||
        folds[f].status == FoldStatus::kTimedOut) {
      continue;
    }
    EvalCache::FoldScore value;
    switch (folds[f].status) {
      case FoldStatus::kScored:
        value.score = folds[f].score;
        break;
      case FoldStatus::kFailed:
        value.failed = true;
        break;
      case FoldStatus::kQuarantined:
        // Replays as a quarantined fold: CrossValidate re-quarantines any
        // non-finite precomputed score.
        value.score = std::numeric_limits<double>::quiet_NaN();
        break;
      default:
        continue;
    }
    cache->InsertFold(config_hash, subset_id, static_cast<uint32_t>(f),
                      value);
  }
}

// The tail both strategies share once the subset (of `b` instances) and its
// folds are fixed: per-evaluation model factory, cached-fold injection,
// CrossValidate, the result, fold storage. The score is the fold mean when
// `scoring` is null (vanilla), ScoreOutcome otherwise: Equation 3 when
// scoring->use_variance is set (the full method), plain mean otherwise (the
// Figure 7 ablation).
Result<EvalResult> CrossValidateSubset(const Configuration& config,
                                       const Dataset& train,
                                       const FoldSet& folds, size_t b,
                                       uint64_t subset_id,
                                       const StrategyOptions& options,
                                       const ScoringOptions* scoring,
                                       Rng* rng) {
  uint64_t config_hash = config.Hash();
  BHPO_ASSIGN_OR_RETURN(
      FoldModelFactory factory,
      MakeFoldModelFactory(config, PerEvalFactory(options.factory, rng),
                           options.cv_pool));
  CvOptions cv_options;
  cv_options.metric = options.metric;
  cv_options.pool = options.cv_pool;
  cv_options.guard = options.guard;
  cv_options.faults = options.faults;
  cv_options.fault_site = subset_id;
  std::vector<bool> injected = InjectCachedFolds(
      options.cache, config_hash, subset_id, folds.num_folds(), &cv_options);
  BHPO_ASSIGN_OR_RETURN(CvOutcome cv,
                        CrossValidate(train, folds, factory, cv_options));

  EvalResult result;
  result.cv = std::move(cv);
  result.budget_used = b;
  result.gamma_percent =
      100.0 * static_cast<double>(b) / static_cast<double>(train.n());
  result.score = scoring == nullptr
                     ? result.cv.mean
                     : ScoreOutcome(result.cv, result.gamma_percent, *scoring);
  StoreComputedFolds(options.cache, config_hash, subset_id, injected,
                     &result);
  return result;
}

}  // namespace

Result<EvalResult> VanillaStrategy::Evaluate(const Configuration& config,
                                             const Dataset& train,
                                             size_t budget, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  size_t b = ClampBudget(budget, train.n(), options_.num_folds);

  // Cache identity must capture the PRE-evaluation rng state — everything
  // below (subset, partition, model seeds) is a pure function of it. The
  // subset id doubles as the fault-injection site, so it is computed even
  // without a cache.
  uint64_t subset_id = EvalSubsetId(*rng, budget, train.n());

  std::vector<size_t> subset;
  if (b >= train.n()) {
    subset = AllIndices(train.n());
  } else if (stratified_ && train.is_classification()) {
    subset = SampleStratified(train, b, rng);
  } else {
    subset = SampleUniform(train.n(), b, rng);
  }

  StratifiedKFold stratified_builder;
  RandomKFold random_builder;
  const FoldBuilder& builder =
      stratified_ ? static_cast<const FoldBuilder&>(stratified_builder)
                  : random_builder;
  BHPO_ASSIGN_OR_RETURN(
      FoldSet folds, builder.Build(train, subset, options_.num_folds, rng));

  return CrossValidateSubset(config, train, folds, b, subset_id, options_,
                             /*scoring=*/nullptr, rng);
}

Result<std::unique_ptr<EnhancedStrategy>> EnhancedStrategy::Create(
    const Dataset& train, const GroupingOptions& grouping_options,
    const GenFoldsOptions& fold_options, const ScoringOptions& scoring,
    const StrategyOptions& options) {
  BHPO_ASSIGN_OR_RETURN(size_t num_folds, fold_options.NumFolds());
  if (num_folds != options.num_folds) {
    return Status::InvalidArgument(
        "k_gen + k_spe must equal num_folds (the paper keeps the total at "
        "5)");
  }
  if (!(std::isfinite(scoring.alpha) && scoring.alpha >= 0.0)) {
    return Status::InvalidArgument("alpha must be finite and >= 0");
  }
  if (!(std::isfinite(scoring.beta_max) && scoring.beta_max > 0.0)) {
    return Status::InvalidArgument("beta_max must be finite and > 0");
  }
  BHPO_ASSIGN_OR_RETURN(Grouping grouping,
                        BuildGrouping(train, grouping_options));
  // make_unique cannot reach the private constructor; ownership is taken
  // on the same line. bhpo-lint: allow(raw-new)
  return std::unique_ptr<EnhancedStrategy>(new EnhancedStrategy(
      std::move(grouping), fold_options, scoring, options));
}

Result<EvalResult> EnhancedStrategy::Evaluate(const Configuration& config,
                                              const Dataset& train,
                                              size_t budget, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  if (train.n() != grouping_.group_of.size()) {
    return Status::FailedPrecondition(
        "EnhancedStrategy used with a dataset other than the one its "
        "grouping was built over");
  }
  size_t b = ClampBudget(budget, train.n(), options_.num_folds);

  // Same identity scheme as VanillaStrategy: cache key and fault site.
  uint64_t subset_id = EvalSubsetId(*rng, budget, train.n());

  std::vector<size_t> subset = b >= train.n()
                                   ? AllIndices(train.n())
                                   : SampleFromGroups(grouping_, b, rng);

  BHPO_ASSIGN_OR_RETURN(FoldSet folds,
                        GenFolds(grouping_, subset, fold_options_, rng));

  return CrossValidateSubset(config, train, folds, b, subset_id, options_,
                             &scoring_, rng);
}

}  // namespace bhpo
