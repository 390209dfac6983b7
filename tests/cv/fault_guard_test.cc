// The per-fold evaluation guard under deterministic fault injection:
// bounded retry recovers transients, permanents fail without wasting
// retries, NaN scores are quarantined out of mu/sigma, deadlines (virtual
// clock, no sleeping) convert slowness into kTimedOut, and everything is
// bit-identical across pool sizes.
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cv/cross_validate.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

// Deterministic stub model (same as the CV tests): majority-class
// predictor, so every fold's score is a pure function of the partition and
// injected faults are the only source of failure.
class MajorityModel : public Model {
 public:
  Status Fit(const DatasetView& train) override {
    if (!train.valid() || train.n() == 0) {
      return Status::InvalidArgument("empty");
    }
    std::vector<size_t> counts = train.ClassCounts();
    majority_ = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    return Status::OK();
  }
  std::vector<int> PredictLabels(const FeatureRows& rows) const override {
    return std::vector<int>(rows.n(), majority_);
  }
  std::vector<double> PredictValues(const FeatureRows&) const override {
    BHPO_CHECK(false) << "classification stub";
    return {};
  }

 private:
  int majority_ = 0;
};

FoldModelFactory MajorityFactory() {
  return [](size_t) { return std::make_unique<MajorityModel>(); };
}

Dataset TestData(size_t n = 100) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = 2;
  spec.num_classes = 2;
  spec.class_weights = {0.7, 0.3};
  spec.seed = 1;
  return MakeBlobs(spec).value();
}

FoldSet FiveFolds(const Dataset& data) {
  std::vector<size_t> subset(data.n());
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(2);
  StratifiedKFold builder;
  return builder.Build(data, subset, 5, &rng).value();
}

FaultInjector MakeInjector(const std::string& spec) {
  return FaultInjector(ParseFaultSpec(spec).value());
}

TEST(FaultGuardTest, TransientFitThrowRecoveredByRetry) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  CvOutcome clean =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), {}).value();

  // Every fold throws once (transient_attempts=1), then the retry succeeds.
  FaultInjector injector = MakeInjector(
      "rate=1,seed=3,points=fit_throw,permanent=0,transient_attempts=1");
  CvOptions options;
  options.faults = &injector;
  options.guard.max_retries = 2;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 0u);
  EXPECT_EQ(outcome.fold_retries, 5u);   // One retry per fold.
  EXPECT_EQ(outcome.injected_faults, 5u);
  ASSERT_EQ(outcome.fold_scores.size(), 5u);
  // Recovery is exact: the retried folds score precisely what a clean run
  // scores — a retry replays the fold, it does not perturb it.
  EXPECT_EQ(outcome.mean, clean.mean);
  EXPECT_EQ(outcome.stddev, clean.stddev);
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kScored);
    EXPECT_EQ(fold.retries, 1);
    EXPECT_FALSE(fold.transient_failure);
  }
}

TEST(FaultGuardTest, RetryExhaustionIsATransientFailure) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  // The fault outlives the retry budget: transient for 10 attempts, but
  // only 1 retry allowed.
  FaultInjector injector = MakeInjector(
      "rate=1,seed=3,points=fit_throw,permanent=0,transient_attempts=10");
  CvOptions options;
  options.faults = &injector;
  options.guard.max_retries = 1;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 5u);
  EXPECT_EQ(outcome.fold_retries, 5u);
  EXPECT_TRUE(outcome.fold_scores.empty());
  EXPECT_TRUE(std::isinf(outcome.mean));
  EXPECT_LT(outcome.mean, 0.0);
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kFailed);
    // Marked transient so the evaluation cache will NOT memoize it: a
    // later evaluation should re-attempt this fold.
    EXPECT_TRUE(fold.transient_failure);
  }
}

TEST(FaultGuardTest, PermanentDivergenceFailsWithoutRetries) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  FaultInjector injector =
      MakeInjector("rate=1,seed=3,points=fit_diverge,permanent=1");
  CvOptions options;
  options.faults = &injector;
  options.guard.max_retries = 3;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 5u);
  EXPECT_EQ(outcome.fold_retries, 0u);  // Deterministic failures never retry.
  EXPECT_TRUE(std::isinf(outcome.mean));
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kFailed);
    EXPECT_FALSE(fold.transient_failure);  // Memoizable: fails identically.
  }
}

TEST(FaultGuardTest, PermanentNanScoreIsQuarantined) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  FaultInjector injector =
      MakeInjector("rate=1,seed=3,points=nan_score,permanent=1");
  CvOptions options;
  options.faults = &injector;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 5u);
  EXPECT_EQ(outcome.quarantined_folds, 5u);
  EXPECT_TRUE(outcome.fold_scores.empty());
  // The quarantine holds: -inf sentinel mean, and no NaN anywhere the
  // scoring layer reads.
  EXPECT_TRUE(std::isinf(outcome.mean));
  EXPECT_FALSE(std::isnan(outcome.mean));
  EXPECT_FALSE(std::isnan(outcome.stddev));
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kQuarantined);
  }
}

TEST(FaultGuardTest, TransientNanScoreIsRetriedNotQuarantined) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  CvOutcome clean =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), {}).value();

  FaultInjector injector = MakeInjector(
      "rate=1,seed=3,points=nan_score,permanent=0,transient_attempts=1");
  CvOptions options;
  options.faults = &injector;
  options.guard.max_retries = 2;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 0u);
  EXPECT_EQ(outcome.quarantined_folds, 0u);
  EXPECT_EQ(outcome.fold_retries, 5u);
  EXPECT_EQ(outcome.mean, clean.mean);
}

TEST(FaultGuardTest, PartialFailureMeanUsesSuccessfulFoldsOnly) {
  Dataset data = TestData(200);
  FoldSet folds = FiveFolds(data);

  CvOutcome clean =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), {}).value();

  // Half-rate permanent divergence: some folds fail, the rest score.
  FaultInjector injector =
      MakeInjector("rate=0.5,seed=11,points=fit_diverge,permanent=1");
  CvOptions options;
  options.faults = &injector;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  ASSERT_GT(outcome.fold_scores.size(), 0u) << "seed produced no survivors";
  ASSERT_GT(outcome.failed_folds, 0u) << "seed produced no failures";
  EXPECT_EQ(outcome.fold_scores.size() + outcome.failed_folds, 5u);

  // The mean is exactly the mean of the surviving folds — failed folds
  // contribute nothing, not a fake sentinel.
  double expected_mean = 0.0, expected_stddev = 0.0;
  MeanStddev(outcome.fold_scores, &expected_mean, &expected_stddev);
  EXPECT_EQ(outcome.mean, expected_mean);
  EXPECT_EQ(outcome.stddev, expected_stddev);
  EXPECT_TRUE(std::isfinite(outcome.mean));

  // Surviving folds score exactly what they score in a clean run.
  for (size_t f = 0; f < 5; ++f) {
    if (outcome.folds[f].status == FoldStatus::kScored) {
      EXPECT_EQ(outcome.folds[f].score, clean.folds[f].score) << "fold " << f;
    }
  }
}

TEST(FaultGuardTest, SlowFoldTimesOutAgainstVirtualDeadline) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  FakeClock fake;  // Never advances: only virtual seconds can elapse.
  FaultInjector injector =
      MakeInjector("rate=1,seed=3,points=slow_fold,permanent=1,slow=5");
  CvOptions options;
  options.faults = &injector;
  options.guard.clock = &fake;
  options.guard.fold_deadline_seconds = 1.0;  // 5 injected > 1 allowed.
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 5u);
  EXPECT_EQ(outcome.timed_out_folds, 5u);
  EXPECT_TRUE(std::isinf(outcome.mean));
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kTimedOut);
    EXPECT_TRUE(fold.transient_failure);  // A later attempt may be faster.
  }
}

TEST(FaultGuardTest, SlowFoldWithoutDeadlineIsHarmless) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  CvOutcome clean =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), {}).value();

  FaultInjector injector =
      MakeInjector("rate=1,seed=3,points=slow_fold,permanent=1,slow=100");
  CvOptions options;
  options.faults = &injector;  // Deadline stays 0: no timeout possible.
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.failed_folds, 0u);
  EXPECT_EQ(outcome.mean, clean.mean);
}

TEST(FaultGuardTest, RetryBackoffCountsTowardTheDeadline) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  FakeClock fake;
  // Transient throw on every attempt; each retry accounts
  // backoff_base * 2^attempt of virtual wait. 0.15 + 0.30 > 0.2, so the
  // third attempt's deadline check trips after exactly 2 retries.
  FaultInjector injector = MakeInjector(
      "rate=1,seed=3,points=fit_throw,permanent=0,transient_attempts=10");
  CvOptions options;
  options.faults = &injector;
  options.guard.clock = &fake;
  options.guard.max_retries = 10;
  options.guard.fold_deadline_seconds = 0.2;
  options.guard.backoff_base_seconds = 0.15;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.timed_out_folds, 5u);
  EXPECT_EQ(outcome.fold_retries, 10u);  // Exactly 2 retries per fold.
  for (const FoldOutcome& fold : outcome.folds) {
    EXPECT_EQ(fold.status, FoldStatus::kTimedOut);
    EXPECT_EQ(fold.retries, 2);
  }
}

TEST(FaultGuardTest, PrecomputedNonFiniteScoreIsQuarantined) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  CvOptions options;
  options.precomputed.push_back(
      {2, std::numeric_limits<double>::quiet_NaN(), false});
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .value();

  EXPECT_EQ(outcome.folds[2].status, FoldStatus::kQuarantined);
  EXPECT_EQ(outcome.quarantined_folds, 1u);
  EXPECT_EQ(outcome.fold_scores.size(), 4u);
  EXPECT_TRUE(std::isfinite(outcome.mean));
}

TEST(FaultGuardTest, FaultedOutcomeIsPoolSizeInvariant) {
  Dataset data = TestData(200);
  FoldSet folds = FiveFolds(data);

  auto run = [&](ThreadPool* pool) {
    // A fresh injector per run: Decide is pure, so two injectors with the
    // same plan inject identical fault sets.
    FaultInjector injector =
        MakeInjector("rate=0.4,seed=9,permanent=0.5,transient_attempts=2");
    CvOptions options;
    options.faults = &injector;
    options.pool = pool;
    options.guard.max_retries = 1;
    options.fault_site = 77;
    return CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
        .value();
  };

  CvOutcome serial = run(nullptr);
  ThreadPool pool(7);
  CvOutcome parallel = run(&pool);

  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.stddev, parallel.stddev);
  EXPECT_EQ(serial.fold_scores, parallel.fold_scores);
  EXPECT_EQ(serial.failed_folds, parallel.failed_folds);
  EXPECT_EQ(serial.quarantined_folds, parallel.quarantined_folds);
  EXPECT_EQ(serial.fold_retries, parallel.fold_retries);
  EXPECT_EQ(serial.injected_faults, parallel.injected_faults);
  ASSERT_EQ(serial.folds.size(), parallel.folds.size());
  for (size_t f = 0; f < serial.folds.size(); ++f) {
    EXPECT_EQ(serial.folds[f].status, parallel.folds[f].status) << f;
    EXPECT_EQ(serial.folds[f].score, parallel.folds[f].score) << f;
    EXPECT_EQ(serial.folds[f].retries, parallel.folds[f].retries) << f;
  }
}

TEST(FaultGuardTest, FaultSiteChangesWhichFoldsFault) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);

  auto statuses = [&](uint64_t site) {
    FaultInjector injector =
        MakeInjector("rate=0.5,seed=21,points=fit_diverge,permanent=1");
    CvOptions options;
    options.faults = &injector;
    options.fault_site = site;
    CvOutcome outcome =
        CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
            .value();
    std::vector<FoldStatus> out;
    for (const FoldOutcome& fold : outcome.folds) out.push_back(fold.status);
    return out;
  };

  // Same site -> identical fault pattern (replayable); different sites
  // usually differ (the site IS the evaluation identity).
  EXPECT_EQ(statuses(1), statuses(1));
  bool any_difference = false;
  for (uint64_t site = 2; site < 12 && !any_difference; ++site) {
    any_difference = statuses(1) != statuses(site);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultGuardTest, NegativeMaxRetriesRejected) {
  Dataset data = TestData();
  FoldSet folds = FiveFolds(data);
  CvOptions options;
  options.guard.max_retries = -1;
  EXPECT_FALSE(
      CrossValidate(DatasetView(data), folds, MajorityFactory(), options)
          .ok());
}

}  // namespace
}  // namespace bhpo
