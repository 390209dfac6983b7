#include "cv/cross_validate.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace bhpo {

void MeanStddev(const std::vector<double>& values, double* mean,
                double* stddev) {
  BHPO_CHECK(mean != nullptr && stddev != nullptr);
  *mean = 0.0;
  *stddev = 0.0;
  if (values.empty()) return;
  for (double v : values) *mean += v;
  *mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) {
    double d = v - *mean;
    var += d * d;
  }
  *stddev = std::sqrt(var / static_cast<double>(values.size()));
}

namespace {

// Everything one fold writes back, reduced in fold order afterwards so the
// outcome is independent of execution order.
struct FoldSlot {
  FoldStatus status = FoldStatus::kSkipped;
  double score = 0.0;
  Status error;
  uint8_t retries = 0;
  bool transient = false;
  bool injected = false;  // Precomputed (cache) — not computed here.
  size_t faults = 0;      // Faults the injector fired on this fold.
};

// One fit+score attempt under fault injection. Returns OK and a finite (or
// injected-NaN) score, or the failure Status; exceptions — injected or
// real — are converted to Status here, never propagated into the pool.
Status FitScoreAttempt(const DatasetView& train, const DatasetView& val,
                       const FoldModelFactory& factory, size_t f,
                       EvalMetric metric, FaultInjector* injector,
                       uint64_t site, uint32_t attempt, FoldSlot* slot,
                       double* score) {
  FaultKind throw_kind =
      MaybeInject(injector, FaultPoint::kFitThrow, site, attempt);
  FaultKind diverge_kind = FaultKind::kNone;
  if (throw_kind == FaultKind::kNone) {
    diverge_kind =
        MaybeInject(injector, FaultPoint::kFitDiverge, site, attempt);
  }
  try {
    if (throw_kind != FaultKind::kNone) {
      ++slot->faults;
      throw std::runtime_error("injected fault: model fit threw");
    }
    if (diverge_kind != FaultKind::kNone) {
      ++slot->faults;
      return diverge_kind == FaultKind::kTransient
                 ? Status::Unavailable(
                       "injected fault: solver diverged (transient)")
                 : Status::Internal("injected fault: solver diverged");
    }
    std::unique_ptr<Model> model = factory(f);
    BHPO_CHECK(model != nullptr);
    BHPO_RETURN_NOT_OK(model->Fit(train));
    *score = EvaluateModel(*model, val, metric);
    FaultKind nan_kind =
        MaybeInject(injector, FaultPoint::kNanScore, site, attempt);
    if (nan_kind != FaultKind::kNone) {
      ++slot->faults;
      *score = std::numeric_limits<double>::quiet_NaN();
      if (nan_kind == FaultKind::kTransient) {
        // Surface as a retryable failure so the guard re-attempts instead
        // of quarantining a score that a retry would have fixed.
        return Status::Unavailable(
            "injected fault: NaN fold score (transient)");
      }
    }
    return Status::OK();
  } catch (const std::exception& e) {
    return throw_kind == FaultKind::kTransient
               ? Status::Unavailable(std::string("fold fit threw: ") +
                                     e.what() + " (transient)")
               : Status::Internal(std::string("fold fit threw: ") + e.what());
  } catch (...) {
    return Status::Internal("fold fit threw a non-std exception");
  }
}

}  // namespace

Result<CvOutcome> CrossValidate(const DatasetView& data, const FoldSet& folds,
                                const FoldModelFactory& factory,
                                const CvOptions& options) {
  if (!factory) return Status::InvalidArgument("null model factory");
  if (folds.num_folds() < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  if (!data.valid()) return Status::InvalidArgument("empty dataset view");
  BHPO_RETURN_NOT_OK(folds.Validate(data.n()));
  if (options.guard.max_retries < 0) {
    return Status::InvalidArgument("negative max_retries");
  }

  size_t k = folds.num_folds();
  const Clock* clock =
      options.guard.clock != nullptr ? options.guard.clock : Clock::Real();

  // Every fold writes only its own preallocated slot; the reduction below
  // walks slots in fold order, so the outcome is bit-identical whether the
  // folds ran serially or on a pool of any size.
  std::vector<FoldSlot> slots(k);

  // Folds whose outcome the caller already knows (cache hits) are recorded
  // up front; run_fold leaves them untouched, so only the delta folds pay
  // for a model fit. A non-finite precomputed "score" is quarantined here
  // exactly as a computed one would be — a poisoned cache entry must not
  // reach mu/sigma either.
  for (const PrecomputedFold& pre : options.precomputed) {
    if (pre.fold >= k) continue;
    FoldSlot& slot = slots[pre.fold];
    slot.injected = true;
    if (pre.failed) {
      slot.status = FoldStatus::kFailed;
      slot.error = Status::Internal("fold fit failure replayed from eval cache");
    } else if (!std::isfinite(pre.score)) {
      slot.status = FoldStatus::kQuarantined;
      slot.error =
          Status::Internal("non-finite precomputed fold score quarantined");
    } else {
      slot.status = FoldStatus::kScored;
      slot.score = pre.score;
    }
  }

  // Fold-of-row table (folds are validated disjoint above): one linear scan
  // per fold then yields the train/val index lists in ascending order, so
  // every pass a model makes over its view is a near-sequential walk of the
  // parent matrix instead of a random one — without paying for a sort.
  std::vector<int> fold_of(data.n(), -1);
  for (size_t g = 0; g < k; ++g) {
    for (size_t idx : folds.folds[g]) fold_of[idx] = static_cast<int>(g);
  }

  auto run_fold = [&](size_t f) {
    FoldSlot& slot = slots[f];
    if (slot.injected) return;
    if (folds.folds[f].empty()) return;
    std::vector<size_t> train_idx;
    train_idx.reserve(folds.TotalSize() - folds.folds[f].size());
    std::vector<size_t> val_idx;
    val_idx.reserve(folds.folds[f].size());
    for (size_t idx = 0; idx < fold_of.size(); ++idx) {
      int g = fold_of[idx];
      if (g < 0) continue;  // Row outside the sampled subset: not in CV.
      if (static_cast<size_t>(g) == f) {
        val_idx.push_back(idx);
      } else {
        train_idx.push_back(idx);
      }
    }
    if (train_idx.empty()) return;

    // Views, not copies: the model reads fold rows straight from the
    // parent feature matrix. Built once; attempts reuse them.
    DatasetView train = data.ViewOf(std::move(train_idx));
    DatasetView val = data.ViewOf(std::move(val_idx));

    uint64_t site = MixSeed(options.fault_site, f);
    double deadline = options.guard.fold_deadline_seconds;
    double start = clock->NowSeconds();
    // Injected slowness and retry backoff accumulate virtually so timeout
    // behaviour is deterministic and testable without sleeping.
    double virtual_elapsed = 0.0;

    for (uint32_t attempt = 0;; ++attempt) {
      if (MaybeInject(options.faults, FaultPoint::kSlowFold, site, attempt) !=
          FaultKind::kNone) {
        ++slot.faults;
        FaultInjector* injector = options.faults != nullptr
                                      ? options.faults
                                      : FaultInjector::Global();
        virtual_elapsed += injector->slow_fold_seconds();
      }
      if (deadline > 0.0 &&
          (clock->NowSeconds() - start) + virtual_elapsed > deadline) {
        slot.status = FoldStatus::kTimedOut;
        slot.transient = true;  // A later attempt may be faster.
        slot.error = Status::DeadlineExceeded("fold exceeded its deadline");
        return;
      }

      double score = 0.0;
      Status st = FitScoreAttempt(train, val, factory, f, options.metric,
                                  options.faults, site, attempt, &slot,
                                  &score);
      if (st.ok()) {
        if (std::isfinite(score)) {
          slot.status = FoldStatus::kScored;
          slot.score = score;
          return;
        }
        // NaN/Inf quarantine: the score is excluded from mu/sigma instead
        // of poisoning Equation 3. Deterministic, so never retried.
        slot.status = FoldStatus::kQuarantined;
        slot.error = Status::Internal("non-finite fold score quarantined");
        return;
      }
      if (st.IsTransient() &&
          attempt < static_cast<uint32_t>(options.guard.max_retries)) {
        ++slot.retries;
        virtual_elapsed +=
            options.guard.backoff_base_seconds *
            static_cast<double>(uint64_t{1} << std::min<uint32_t>(attempt, 62));
        continue;
      }
      slot.status = FoldStatus::kFailed;
      slot.transient = st.IsTransient();
      slot.error = st;
      return;
    }
  };

  if (options.pool != nullptr) {
    options.pool->ParallelFor(k, run_fold);
  } else {
    for (size_t f = 0; f < k; ++f) run_fold(f);
  }

  CvOutcome outcome;
  outcome.subset_size = folds.TotalSize();
  outcome.folds.resize(k);
  bool any_attempted = false;
  for (size_t f = 0; f < k; ++f) {
    const FoldSlot& slot = slots[f];
    FoldOutcome& fold = outcome.folds[f];
    fold.status = slot.status;
    fold.retries = slot.retries;
    fold.transient_failure = slot.transient;
    outcome.fold_retries += slot.retries;
    outcome.injected_faults += slot.faults;
    switch (slot.status) {
      case FoldStatus::kScored:
        fold.score = slot.score;
        outcome.fold_scores.push_back(slot.score);
        any_attempted = true;
        break;
      case FoldStatus::kFailed:
      case FoldStatus::kQuarantined:
      case FoldStatus::kTimedOut:
        if (!slot.injected) {
          BHPO_LOG(kInfo) << "fold " << f << " unusable ("
                          << (slot.retries > 0
                                  ? std::to_string(slot.retries) + " retries"
                                  : "no retries")
                          << "): " << slot.error.ToString();
        }
        ++outcome.failed_folds;
        if (slot.status == FoldStatus::kQuarantined) {
          ++outcome.quarantined_folds;
        }
        if (slot.status == FoldStatus::kTimedOut) ++outcome.timed_out_folds;
        any_attempted = true;
        break;
      case FoldStatus::kSkipped:
        break;
    }
  }

  if (!any_attempted) {
    return Status::FailedPrecondition("no usable folds (all empty)");
  }
  if (outcome.fold_scores.empty()) {
    // Every fold failed to produce a usable score: worst possible mean, so
    // this configuration loses any comparison but the search keeps going.
    outcome.mean = -std::numeric_limits<double>::infinity();
    outcome.stddev = 0.0;
  } else {
    MeanStddev(outcome.fold_scores, &outcome.mean, &outcome.stddev);
  }
  return outcome;
}

}  // namespace bhpo
