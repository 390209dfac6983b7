// Search-outcome lock for all nine optimizers. Each case runs one optimizer
// on a noisy FakeStrategy with a fixed seed and compares an FNV-1a digest of
// the whole outcome — every history record (config key, score bits, budget,
// eval_failed), the counters, the winner and its score bits — against a
// recorded constant. Any change to RNG draw order, rung schedule, promotion
// order, demotion or winner selection changes the digest.
//
// The constants depend on the exact sample streams of std::uniform_*,
// std::normal_distribution and friends, i.e. on libstdc++'s <random>
// distribution implementations: another standard library produces different
// (equally valid) searches and needs its own constants.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/dehb.h"
#include "hpo/hyperband.h"
#include "hpo/pasha.h"
#include "hpo/sequential_search.h"
#include "hpo/sha.h"
#include "hpo/smac.h"
#include "tests/hpo/fake_strategy.h"

namespace bhpo {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Double(double d) { U64(std::bit_cast<uint64_t>(d)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t Digest(const HpoResult& result) {
  Fnv1a h;
  h.U64(result.history.size());
  for (const EvaluationRecord& record : result.history) {
    h.Str(record.config.Key());
    h.Double(record.score);
    h.U64(record.budget);
    h.U64(record.eval_failed ? 1 : 0);
  }
  h.U64(result.num_evaluations);
  h.U64(result.total_instances);
  h.U64(result.faults.failed_evals);
  h.Str(result.best_config.Key());
  h.Double(result.best_score);
  return h.value();
}

// FakeStrategy that fails a deterministic quarter of (config, budget) pairs
// with a demotable Internal error, so every optimizer's demotion path runs.
class FlakyFakeStrategy : public FakeStrategy {
 public:
  explicit FlakyFakeStrategy(double noise) : FakeStrategy(noise) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    if ((config.Hash() + budget) % 4 == 0) {
      return Status::Internal("flaky evaluation");
    }
    return FakeStrategy::Evaluate(config, train, budget, rng);
  }
};

struct GoldenCase {
  const char* name;
  uint64_t digest;
  // Runs the optimizer under test against `strategy`.
  std::function<Result<HpoResult>(EvalStrategy* strategy)> run;
  bool flaky;
  double noise = 0.3;
};

Result<HpoResult> RunRandom(EvalStrategy* strategy, const ConfigSpace& space) {
  RandomConfigSampler sampler(&space);
  SequentialSearch search(&sampler, strategy, 12);
  Rng rng(101);
  return search.Optimize(BudgetDataset(400), &rng);
}

Result<HpoResult> RunSha(EvalStrategy* strategy, const ConfigSpace& space,
                         ThreadPool* pool) {
  ShaOptions options;
  options.pool = pool;
  SuccessiveHalving sha(space.EnumerateGrid(), strategy, options);
  Rng rng(102);
  return sha.Optimize(BudgetDataset(960), &rng);
}

Result<HpoResult> RunShaSingle(EvalStrategy* strategy) {
  ConfigSpace space = QualitySpace(4);
  SuccessiveHalving sha({space.EnumerateGrid()[2]}, strategy);
  Rng rng(103);
  return sha.Optimize(BudgetDataset(303), &rng);
}

Result<HpoResult> RunHyperband(EvalStrategy* strategy,
                               const ConfigSpace& space, ThreadPool* pool) {
  RandomConfigSampler sampler(&space);
  HyperbandOptions options;
  options.pool = pool;
  Hyperband hb(&sampler, strategy, options);
  Rng rng(104);
  return hb.Optimize(BudgetDataset(810), &rng);
}

Result<HpoResult> RunBohb(EvalStrategy* strategy, const ConfigSpace& space) {
  Bohb bohb(&space, strategy);
  Rng rng(105);
  return bohb.Optimize(BudgetDataset(810), &rng);
}

Result<HpoResult> RunDehb(EvalStrategy* strategy, const ConfigSpace& space) {
  Dehb dehb(&space, strategy);
  Rng rng(106);
  return dehb.Optimize(BudgetDataset(810), &rng);
}

Result<HpoResult> RunAsha(EvalStrategy* strategy, const ConfigSpace& space,
                          size_t max_jobs) {
  AshaOptions options;
  options.max_jobs = max_jobs;
  options.min_budget = 50;
  Asha asha(&space, strategy, options);
  Rng rng(107);
  return asha.Optimize(BudgetDataset(800), &rng);
}

Result<HpoResult> RunPasha(EvalStrategy* strategy, const ConfigSpace& space) {
  PashaOptions options;
  options.max_jobs = 70;
  options.min_budget = 50;
  Pasha pasha(&space, strategy, options);
  Rng rng(108);
  return pasha.Optimize(BudgetDataset(800), &rng);
}

Result<HpoResult> RunSmac(EvalStrategy* strategy, const ConfigSpace& space) {
  SmacOptions options;
  options.initial_random = 4;
  options.candidates_per_iteration = 40;
  options.surrogate_trees = 8;
  SmacConfigSampler sampler(&space, options);
  SequentialSearch smac(&sampler, strategy, 12);
  Rng rng(109);
  return smac.Optimize(BudgetDataset(400), &rng);
}

Result<HpoResult> RunTpe(EvalStrategy* strategy, const ConfigSpace& space) {
  TpeOptions options;
  options.min_points = 6;
  TpeConfigSampler sampler(&space, options);
  SequentialSearch tpe(&sampler, strategy, 24);
  Rng rng(110);
  return tpe.Optimize(BudgetDataset(400), &rng);
}

// Every quality appears three times ("pad" does not affect the score), so
// noiseless runs on it tie different configurations and the tie-breaking
// rules decide rankings and winners.
ConfigSpace TiedSpace() {
  ConfigSpace space = QualitySpace(5);
  BHPO_CHECK(space.Add("pad", {"a", "b", "c"}).ok());
  return space;
}

std::vector<GoldenCase> Cases() {
  using S = EvalStrategy*;
  return {
      {"random", 0x203f547406325560ULL,
       [](S s) { return RunRandom(s, QualitySpace(10)); }, false},
      {"random_flaky", 0xb51a44ca53ac1ec2ULL,
       [](S s) { return RunRandom(s, QualitySpace(10)); }, true},
      {"random_tied", 0xe4e104e9fdcca815ULL,
       [](S s) { return RunRandom(s, TiedSpace()); }, false, 0.0},
      {"sha", 0xc9fad9f15a57a314ULL,
       [](S s) { return RunSha(s, QualitySpace(12), nullptr); }, false},
      {"sha_flaky", 0xb93f260d03dde27aULL,
       [](S s) { return RunSha(s, QualitySpace(12), nullptr); }, true},
      {"sha_tied", 0xe70d0af974d1c14eULL,
       [](S s) { return RunSha(s, TiedSpace(), nullptr); }, false, 0.0},
      {"sha_single_flaky", 0x6ca306f38473cbebULL, RunShaSingle, true},
      {"hyperband", 0xeb89757a36b45685ULL,
       [](S s) { return RunHyperband(s, QualitySpace(10), nullptr); }, false},
      {"hyperband_flaky", 0x113c614f78ca198dULL,
       [](S s) { return RunHyperband(s, QualitySpace(10), nullptr); }, true},
      {"hyperband_tied", 0xb06db0cf25bbfbbeULL,
       [](S s) { return RunHyperband(s, TiedSpace(), nullptr); }, false,
       0.0},
      {"bohb", 0xb3fd214714fea5aaULL,
       [](S s) { return RunBohb(s, QualitySpace(10)); }, false},
      {"bohb_flaky", 0xcb1b9c747c3602bfULL,
       [](S s) { return RunBohb(s, QualitySpace(10)); }, true},
      {"bohb_tied", 0x9ca325531f528850ULL, [](S s) { return RunBohb(s, TiedSpace()); },
       false, 0.0},
      {"dehb", 0x14ccf2bfebc7b3caULL,
       [](S s) { return RunDehb(s, QualitySpace(10)); }, false},
      {"dehb_flaky", 0x92d649b592771ef8ULL,
       [](S s) { return RunDehb(s, QualitySpace(10)); }, true},
      {"asha", 0x81fbb1f6f5df4b67ULL,
       [](S s) { return RunAsha(s, QualitySpace(10), 60); }, false},
      {"asha_flaky", 0x0cca53803a1ad8f7ULL,
       [](S s) { return RunAsha(s, QualitySpace(10), 60); }, true},
      // Too few jobs to reach the top rung: the fallback winner rule.
      {"asha_short_flaky", 0x4a22c9303482c18eULL,
       [](S s) { return RunAsha(s, QualitySpace(10), 9); }, true},
      {"asha_tied", 0xf3fa7f510e48969cULL,
       [](S s) { return RunAsha(s, TiedSpace(), 60); }, false, 0.0},
      {"pasha", 0xbcbb6aa50c146128ULL,
       [](S s) { return RunPasha(s, QualitySpace(10)); }, false},
      {"pasha_flaky", 0x7f4fa19da7ce1adbULL,
       [](S s) { return RunPasha(s, QualitySpace(10)); }, true},
      // Strong noise: rung rankings disagree and the ladder grows.
      {"pasha_noisy", 0xd1e4aea0b4828d14ULL,
       [](S s) { return RunPasha(s, QualitySpace(10)); }, false, 2.0},
      {"pasha_tied", 0x8abf1e33adffdbd0ULL, [](S s) { return RunPasha(s, TiedSpace()); },
       false, 0.0},
      {"smac", 0xba4685acc29310a5ULL,
       [](S s) { return RunSmac(s, QualitySpace(10)); }, false},
      {"smac_flaky", 0xe6da4ba3fb17b67bULL,
       [](S s) { return RunSmac(s, QualitySpace(10)); }, true},
      {"smac_tied", 0xa02e4adf2b99b879ULL, [](S s) { return RunSmac(s, TiedSpace()); },
       false, 0.0},
      {"tpe", 0xc01acec12b47eb79ULL,
       [](S s) { return RunTpe(s, QualitySpace(10)); }, false},
      {"tpe_flaky", 0x5c48957f0c58414fULL,
       [](S s) { return RunTpe(s, QualitySpace(10)); }, true},
      {"tpe_tied", 0x39f03b1c27df0a6eULL, [](S s) { return RunTpe(s, TiedSpace()); }, false,
       0.0},
  };
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(OptimizerGoldenTest, SearchOutcomesMatchRecordedDigests) {
  for (const GoldenCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<FakeStrategy> strategy =
        c.flaky ? std::make_unique<FlakyFakeStrategy>(c.noise)
                : std::make_unique<FakeStrategy>(c.noise);
    Result<HpoResult> result = c.run(strategy.get());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (c.flaky) {
      EXPECT_GT(result->faults.failed_evals, 0u);
    } else {
      EXPECT_EQ(result->faults.failed_evals, 0u);
    }
    EXPECT_EQ(Hex(Digest(*result)), Hex(c.digest));
  }
}

// The pool only changes where evaluations run, never the outcome: the
// parallel SHA and Hyperband runs hit the serial runs' digests, demotions
// included.
TEST(OptimizerGoldenTest, PoolRunsMatchSerialDigests) {
  ThreadPool pool(4);
  for (bool flaky : {false, true}) {
    SCOPED_TRACE(flaky ? "flaky" : "clean");
    FakeStrategy clean(0.3);
    FlakyFakeStrategy broken(0.3);
    EvalStrategy* strategy = flaky ? &broken : &clean;
    HpoResult serial_sha = RunSha(strategy, QualitySpace(12), nullptr).value();
    HpoResult parallel_sha = RunSha(strategy, QualitySpace(12), &pool).value();
    EXPECT_EQ(Digest(serial_sha), Digest(parallel_sha));
    HpoResult serial_hb =
        RunHyperband(strategy, QualitySpace(10), nullptr).value();
    HpoResult parallel_hb =
        RunHyperband(strategy, QualitySpace(10), &pool).value();
    EXPECT_EQ(Digest(serial_hb), Digest(parallel_hb));
  }
}

}  // namespace
}  // namespace bhpo
