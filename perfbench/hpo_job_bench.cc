// End-to-end HPO job benchmark.
//
// One client submits complete HPO jobs in a closed loop (one job in flight)
// through the public library API: MakePaperDataset -> EnhancedStrategy::Create
// -> CachingStrategy -> optimizer Optimize -> EvaluateFinalConfig. Every job
// draws a fresh dataset seed and search seed from the workload seed, and runs
// on one shared ThreadPool of nproc - 1 workers (the ParallelFor caller also
// runs tasks, so nproc threads are busy).
//
//   hpo_job_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same window
// untraced, then replays the same jobs with spans recorded by decorators this
// file wraps around the public calls, and reports the per-layer metrics plus
// the tracing overhead (traced minus untraced job time). Both modes check
// every job against the same job run serially with the cache off.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "data/paper_datasets.h"
#include "hpo/asha.h"
#include "hpo/bohb.h"
#include "hpo/checkpoint.h"
#include "hpo/config_space.h"
#include "hpo/eval_cache.h"
#include "hpo/sha.h"

namespace {

using namespace bhpo;  // NOLINT: benchmark binary.

// ---------------------------------------------------------------------------
// Workloads. Each one puts a different layer on the critical path; see
// perfbench/README.md for what each exercises and bypasses.
// ---------------------------------------------------------------------------

enum class Method { kSha, kAsha, kBohb };

struct Workload {
  std::string name;
  std::string dataset;
  double scale = 1.0;
  Method method = Method::kSha;
  ConfigSpace (*space)() = nullptr;
};

// MLP training iterations per fit: short, so a job takes about half a second.
constexpr int kMaxIter = 10;

ConfigSpace MlpSpace() { return ConfigSpace::PaperSpace(4); }

// 2 * 2 * 2 * 3 * 2 * 2 = 96 points; each family ignores the other's knobs.
ConfigSpace CashTreeSpace() {
  ConfigSpace space;
  BHPO_CHECK(space.Add("model", {"random_forest", "gbdt"}).ok());
  BHPO_CHECK(space.Add("num_trees", {"16", "32"}).ok());
  BHPO_CHECK(space.Add("num_rounds", {"2", "4"}).ok());
  BHPO_CHECK(space.Add("max_depth", {"2", "4", "6"}).ok());
  BHPO_CHECK(space.Add("min_samples_leaf", {"2", "8"}).ok());
  BHPO_CHECK(space.Add("learning_rate_init", {"0.1", "0.3"}).ok());
  return space;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"sha_mlp_grid", "satimage", 0.35, Method::kSha, &MlpSpace},
      {"asha_mlp_regression", "kc-house", 0.2, Method::kAsha, &MlpSpace},
      {"bohb_cash_trees", "a9a", 0.3, Method::kBohb, &CashTreeSpace},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Tracing: spans at the strategy boundaries, with a per-thread span stack.
//
// ParallelFor's caller runs queued tasks while it waits, so one thread's
// evaluation span can contain whole other evaluations. Self time (span
// duration minus the spans nested directly inside it on the same thread)
// counts each second of thread time once; raw span time does not.
// ---------------------------------------------------------------------------

struct Frame {
  double start = 0.0;
  double child = 0.0;
};

thread_local std::vector<Frame> t_span_stack;

double NowSeconds() { return Clock::Real()->NowSeconds(); }

// Counters and spans of one decorated layer for one job.
struct LayerStats {
  std::mutex mu;
  size_t evals = 0;
  size_t folds_attempted = 0;  // Non-skipped folds in returned results.
  size_t folds_fit = 0;
  size_t folds_replayed = 0;
  size_t fold_retries = 0;
  size_t failed_folds = 0;
  std::vector<double> self_s;
  double raw_s_sum = 0.0;
};

// Decorator that counts what passes through one layer and, when tracing,
// records the layer's span.
class ObservedStrategy final : public EvalStrategy {
 public:
  ObservedStrategy(EvalStrategy* inner, LayerStats* stats, bool trace)
      : inner_(inner), stats_(stats), trace_(trace) {}

  Result<EvalResult> Evaluate(const Configuration& config,
                              const Dataset& train, size_t budget,
                              Rng* rng) override {
    if (trace_) t_span_stack.push_back({NowSeconds(), 0.0});
    Result<EvalResult> result = inner_->Evaluate(config, train, budget, rng);
    double raw = 0.0;
    double self = 0.0;
    if (trace_) {
      Frame frame = t_span_stack.back();
      t_span_stack.pop_back();
      raw = NowSeconds() - frame.start;
      self = raw - frame.child;
      if (!t_span_stack.empty()) t_span_stack.back().child += raw;
    }
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->evals;
    if (trace_) {
      stats_->self_s.push_back(self);
      stats_->raw_s_sum += raw;
    }
    if (result.ok()) {
      const EvalResult& eval = *result;
      for (const FoldOutcome& fold : eval.cv.folds) {
        if (fold.status != FoldStatus::kSkipped) ++stats_->folds_attempted;
      }
      stats_->folds_fit += eval.cache_fold_misses;
      stats_->folds_replayed += eval.cache_fold_hits;
      stats_->fold_retries += eval.cv.fold_retries;
      stats_->failed_folds += eval.cv.failed_folds;
    }
    return result;
  }

  std::string name() const override { return inner_->name(); }

 private:
  EvalStrategy* inner_;
  LayerStats* stats_;
  bool trace_;
};

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

struct JobSpec {
  uint64_t data_seed = 0;
  uint64_t search_seed = 0;
};

JobSpec MakeJobSpec(uint64_t workload_seed, size_t index) {
  return {MixSeed(workload_seed, 2 * index), MixSeed(workload_seed, 2 * index + 1)};
}

// The identity of a job's search outcome: what the serial, cache-off run must
// reproduce exactly.
struct SearchDigest {
  std::string best_config;
  uint64_t best_score_bits = 0;
  uint64_t history = 0;

  bool operator==(const SearchDigest& other) const {
    return best_config == other.best_config &&
           best_score_bits == other.best_score_bits &&
           history == other.history;
  }
};

uint64_t Fnv(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

SearchDigest Digest(const HpoResult& result) {
  uint64_t hash = 14695981039346656037ull;
  for (const EvaluationRecord& record : result.history) {
    std::string key = record.config.Key();
    hash = Fnv(hash, key.data(), key.size());
    uint64_t fields[3] = {Bits(record.score), record.budget,
                          record.eval_failed ? 1u : 0u};
    hash = Fnv(hash, fields, sizeof(fields));
  }
  uint64_t totals[2] = {result.num_evaluations, result.total_instances};
  hash = Fnv(hash, totals, sizeof(totals));
  return {result.best_config.Key(), Bits(result.best_score), hash};
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct JobRecord {
  JobSpec spec;
  SearchDigest digest;
  // Set-up.
  double data_gen_s = 0.0;
  double grouping_s = 0.0;
  double setup_s = 0.0;
  // Job, from intake to a scored final model.
  double job_s = 0.0;
  double search_s = 0.0;
  double final_s = 0.0;
  double cpu_s = 0.0;
  double test_metric = 0.0;
  size_t evals = 0;
  size_t instances = 0;
  FaultReport faults;
  LayerStats outer;  // Around CachingStrategy: what the optimizer sees.
  LayerStats inner;  // Around EnhancedStrategy: evaluations actually run.
  EvalCacheStats cache;
  size_t checkpoint_bytes = 0;
  double checkpoint_load_s = 0.0;
};

struct JobContext {
  const Workload* workload = nullptr;
  const ConfigSpace* space = nullptr;
  ThreadPool* pool = nullptr;  // Null: serial reference run.
  bool use_cache = true;
  bool trace = false;
  std::string checkpoint_path;  // Empty: no checkpoints.
};

Result<std::unique_ptr<EnhancedStrategy>> CreateStrategy(
    const Dataset& train, const JobSpec& spec, const StrategyOptions& options) {
  GroupingOptions grouping;
  grouping.num_groups = 2;
  grouping.min_cluster_ratio = 0.8;
  grouping.seed = MixSeed(spec.search_seed, 1);
  ScoringOptions scoring;
  scoring.use_variance = true;
  scoring.alpha = 0.1;
  scoring.beta_max = 10.0;
  return EnhancedStrategy::Create(train, grouping, GenFoldsOptions(), scoring,
                                  options);
}

std::unique_ptr<HpoOptimizer> MakeOptimizer(const JobContext& ctx,
                                            const JobSpec& spec,
                                            EvalStrategy* eval,
                                            FaultInjector* faults) {
  switch (ctx.workload->method) {
    case Method::kSha: {
      ShaOptions options;
      options.pool = ctx.pool;
      options.checkpoint.path = ctx.checkpoint_path;
      options.checkpoint.run_tag = ctx.workload->name + "|" +
                                   std::to_string(spec.data_seed) + "|" +
                                   std::to_string(spec.search_seed);
      options.checkpoint.faults = faults;
      return std::make_unique<SuccessiveHalving>(ctx.space->EnumerateGrid(),
                                                 eval, options);
    }
    case Method::kAsha:
      return std::make_unique<Asha>(ctx.space, eval, AshaOptions());
    case Method::kBohb: {
      HyperbandOptions options;
      options.pool = ctx.pool;
      return std::make_unique<Bohb>(ctx.space, eval, options);
    }
  }
  return nullptr;
}

// Runs one job end to end. With a null pool and no cache this is the serial
// reference the correctness gate compares against.
Status RunJob(const JobContext& ctx, const JobSpec& spec, JobRecord* rec) {
  rec->spec = spec;
  const Workload& w = *ctx.workload;
  // An explicit, disabled injector: an inherited BHPO_FAULT cannot fire.
  FaultInjector faults{FaultPlan{}};

  Stopwatch setup;
  BHPO_ASSIGN_OR_RETURN(TrainTestSplit data,
                        MakePaperDataset(w.dataset, spec.data_seed, w.scale));
  rec->data_gen_s = setup.ElapsedSeconds();
  std::unique_ptr<EvalCache> cache;
  if (ctx.use_cache) cache = std::make_unique<EvalCache>();
  StrategyOptions options;
  options.metric =
      data.train.is_classification() ? EvalMetric::kAccuracy : EvalMetric::kR2;
  options.factory.max_iter = kMaxIter;
  options.factory.seed = MixSeed(spec.search_seed, 2);
  options.cv_pool = ctx.pool;
  options.cache = cache.get();
  options.faults = &faults;
  Stopwatch grouping;
  BHPO_ASSIGN_OR_RETURN(std::unique_ptr<EnhancedStrategy> strategy,
                        CreateStrategy(data.train, spec, options));
  rec->grouping_s = grouping.ElapsedSeconds();
  rec->setup_s = setup.ElapsedSeconds();

  double cpu0 = ProcessCpuSeconds();
  Stopwatch job;
  ObservedStrategy inner(strategy.get(), &rec->inner, ctx.trace);
  std::unique_ptr<CachingStrategy> caching;
  EvalStrategy* cached = &inner;
  if (cache != nullptr) {
    caching = std::make_unique<CachingStrategy>(&inner, cache.get());
    cached = caching.get();
  }
  ObservedStrategy outer(cached, &rec->outer, ctx.trace);
  std::unique_ptr<HpoOptimizer> optimizer =
      MakeOptimizer(ctx, spec, &outer, &faults);
  Rng rng(MixSeed(spec.search_seed, 3));
  Stopwatch search;
  BHPO_ASSIGN_OR_RETURN(HpoResult result, optimizer->Optimize(data.train, &rng));
  rec->search_s = search.ElapsedSeconds();

  Stopwatch final_fit;
  BHPO_ASSIGN_OR_RETURN(
      FinalEvaluation final,
      EvaluateFinalConfig(result.best_config, data.train, data.test,
                          options.metric, options.factory));
  rec->final_s = final_fit.ElapsedSeconds();
  rec->job_s = job.ElapsedSeconds();
  rec->cpu_s = ProcessCpuSeconds() - cpu0;

  rec->test_metric = final.test_metric;
  rec->evals = result.num_evaluations;
  rec->instances = result.total_instances;
  rec->faults = result.faults;
  rec->digest = Digest(result);
  if (cache != nullptr) rec->cache = cache->Stats();

  // What a resume pays: loading the last rung's checkpoint.
  if (ctx.trace && !ctx.checkpoint_path.empty()) {
    std::error_code ec;
    rec->checkpoint_bytes =
        static_cast<size_t>(std::filesystem::file_size(ctx.checkpoint_path, ec));
    if (ec) return Status::IoError("no checkpoint at " + ctx.checkpoint_path);
    Stopwatch load;
    BHPO_ASSIGN_OR_RETURN(CheckpointState state,
                          LoadCheckpoint(ctx.checkpoint_path));
    rec->checkpoint_load_s = load.ElapsedSeconds();
    if (state.num_evaluations != result.num_evaluations) {
      return Status::Internal("checkpoint does not hold the finished run");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename F>
std::vector<double> Collect(const std::vector<std::unique_ptr<JobRecord>>& jobs,
                            F field) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) out.push_back(static_cast<double>(field(*job)));
  return out;
}

template <typename F>
double Sum(const std::vector<std::unique_ptr<JobRecord>>& jobs, F field) {
  double total = 0.0;
  for (const auto& job : jobs) total += static_cast<double>(field(*job));
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* section, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-34s %.9g %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

struct Run {
  std::vector<std::unique_ptr<JobRecord>> jobs;
  double pool_construct_s = 0.0;
  double peak_rss_mb = 0.0;
};

std::vector<Metric> EndToEndMetrics(const Run& run, size_t* tail_rank) {
  const auto& jobs = run.jobs;
  std::vector<double> job_s = Collect(jobs, [](const JobRecord& j) { return j.job_s; });
  std::sort(job_s.begin(), job_s.end());
  // Highest percentile with at least ten jobs beyond it: the 11th largest.
  size_t n = job_s.size();
  *tail_rank = n >= 11 ? n - 11 : 0;
  double search_s = Sum(jobs, [](const JobRecord& j) { return j.search_s; });
  double evals = Sum(jobs, [](const JobRecord& j) { return j.evals; });
  double folds = Sum(jobs, [](const JobRecord& j) { return j.outer.folds_attempted; });
  return {
      {"setup_s",
       run.pool_construct_s +
           Median(Collect(jobs, [](const JobRecord& j) { return j.setup_s; })),
       "s"},
      {"job_s_p50", Median(job_s), "s"},
      {"job_s_tail", job_s[*tail_rank], "s"},
      {"evals_per_s", Ratio(evals, search_s), "1/s"},
      {"instances_per_s",
       Ratio(Sum(jobs, [](const JobRecord& j) { return j.instances; }), search_s),
       "1/s"},
      {"cpu_s_per_job",
       Median(Collect(jobs, [](const JobRecord& j) { return j.cpu_s; })), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"test_metric_mean",
       Sum(jobs, [](const JobRecord& j) { return j.test_metric; }) /
           static_cast<double>(jobs.size()),
       "score"},
      {"failed_eval_frac",
       Ratio(Sum(jobs, [](const JobRecord& j) { return j.faults.failed_evals; }),
             evals),
       "fraction"},
      {"failed_fold_frac",
       Ratio(Sum(jobs, [](const JobRecord& j) { return j.faults.failed_folds; }),
             folds),
       "fraction"},
  };
}

std::vector<Metric> PerLayerMetrics(
    const std::vector<std::unique_ptr<JobRecord>>& jobs, size_t busy_threads,
    double overhead_frac) {
  auto per_job = [&](auto field) {
    return Median(Collect(jobs, field));
  };
  std::vector<double> strategy_self;
  for (const auto& job : jobs) {
    strategy_self.insert(strategy_self.end(), job->inner.self_s.begin(),
                         job->inner.self_s.end());
  }
  auto sum_self = [](const LayerStats& s) {
    return std::accumulate(s.self_s.begin(), s.self_s.end(), 0.0);
  };
  double self_total = Sum(jobs, [&](const JobRecord& j) { return sum_self(j.inner); });
  double search_total = Sum(jobs, [](const JobRecord& j) { return j.search_s; });
  double folds_fit = Sum(jobs, [](const JobRecord& j) { return j.inner.folds_fit; });
  double result_lookups = Sum(jobs, [](const JobRecord& j) {
    return j.cache.result_hits + j.cache.result_misses;
  });
  double fold_lookups = Sum(jobs, [](const JobRecord& j) {
    return j.cache.fold_hits + j.cache.fold_misses;
  });
  return {
      {"data.gen_s", per_job([](const JobRecord& j) { return j.data_gen_s; }), "s"},
      {"cv.grouping_s", per_job([](const JobRecord& j) { return j.grouping_s; }), "s"},
      {"hpo.optimizer.search_s", per_job([](const JobRecord& j) { return j.search_s; }), "s"},
      {"hpo.optimizer.evals", per_job([](const JobRecord& j) { return j.evals; }), "count/job"},
      {"hpo.optimizer.instances", per_job([](const JobRecord& j) { return j.instances; }),
       "count/job"},
      {"hpo.optimizer.pool_idle_frac",
       1.0 - Ratio(self_total, search_total * static_cast<double>(busy_threads)),
       "fraction"},
      {"hpo.strategy.evals", per_job([](const JobRecord& j) { return j.inner.evals; }),
       "count/job"},
      {"hpo.strategy.self_s_p50", Median(strategy_self), "s"},
      {"hpo.strategy.self_s_sum", per_job([&](const JobRecord& j) { return sum_self(j.inner); }),
       "s/job"},
      {"cv.folds_fit", per_job([](const JobRecord& j) { return j.inner.folds_fit; }),
       "count/job"},
      {"cv.folds_replayed",
       per_job([](const JobRecord& j) { return j.inner.folds_replayed; }), "count/job"},
      {"cv.fold_retries", per_job([](const JobRecord& j) { return j.inner.fold_retries; }),
       "count/job"},
      {"cv.failed_folds", per_job([](const JobRecord& j) { return j.inner.failed_folds; }),
       "count/job"},
      {"ml.fit_s_per_fold", Ratio(self_total, folds_fit), "s"},
      {"hpo.cache.result_hit_rate",
       Ratio(Sum(jobs, [](const JobRecord& j) { return j.cache.result_hits; }),
             result_lookups),
       "fraction"},
      {"hpo.cache.fold_hit_rate",
       Ratio(Sum(jobs, [](const JobRecord& j) { return j.cache.fold_hits; }), fold_lookups),
       "fraction"},
      {"hpo.cache.insertions", per_job([](const JobRecord& j) { return j.cache.insertions; }),
       "count/job"},
      {"hpo.cache.overhead_s",
       per_job([&](const JobRecord& j) { return sum_self(j.outer); }), "s/job"},
      {"hpo.final.fit_s", per_job([](const JobRecord& j) { return j.final_s; }), "s"},
      {"hpo.checkpoint.bytes",
       per_job([](const JobRecord& j) { return j.checkpoint_bytes; }), "bytes"},
      {"hpo.checkpoint.load_s",
       per_job([](const JobRecord& j) { return j.checkpoint_load_s; }), "s"},
      {"trace.overhead_frac", overhead_frac, "fraction"},
  };
}

std::string EnvOrUnset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

Result<Args> ParseArgs(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Args args;
  args.workload = flags.GetString("workload", "");
  std::string seed = flags.GetString("seed", "");
  char* end = nullptr;
  args.seed = std::strtoull(seed.c_str(), &end, 10);
  BHPO_ASSIGN_OR_RETURN(args.seconds, flags.GetDouble("seconds", 0.0));
  BHPO_ASSIGN_OR_RETURN(int trace, flags.GetInt("trace", -1));
  args.trace = trace == 1;
  args.scratch = flags.GetString("scratch", "");
  BHPO_RETURN_NOT_OK(flags.CheckUnrecognized());
  if (args.workload.empty() || seed.empty() || *end != '\0' ||
      args.seconds <= 0.0 || (trace != 0 && trace != 1) ||
      args.scratch.empty()) {
    return Status::InvalidArgument(
        "usage: hpo_job_bench --workload NAME --seed N --seconds S "
        "--trace 0|1 --scratch DIR");
  }
  return args;
}

// Jobs per run: enough for the tail percentile to have ten jobs beyond it,
// capped so a slow commit still ends well inside the run's time limit.
constexpr size_t kMinJobs = 11;
constexpr size_t kMaxJobs = 400;

}  // namespace

int main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = *parsed;
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ConfigSpace space = workload->space();

  size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  size_t workers = std::max<size_t>(1, nproc - 1);
  Stopwatch pool_watch;
  ThreadPool pool(workers);
  Run run;
  run.pool_construct_s = pool_watch.ElapsedSeconds();
  size_t busy_threads = workers + 1;

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              workload->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("env BHPO_SIMD=%s BHPO_LOG_LEVEL=%s nproc=%zu pool_workers=%zu "
              "busy_threads=%zu\n",
              EnvOrUnset("BHPO_SIMD").c_str(),
              EnvOrUnset("BHPO_LOG_LEVEL").c_str(), nproc, workers,
              busy_threads);

  JobContext ctx;
  ctx.workload = workload;
  ctx.space = &space;
  ctx.pool = &pool;
  // Only SuccessiveHalving checkpoints; it writes one after every rung.
  if (workload->method == Method::kSha) {
    ctx.checkpoint_path = (std::filesystem::path(args.scratch) /
                           ("checkpoint_" + workload->name + ".bin"))
                              .string();
  }

  // One unreported job first, so lazy set-up and cold caches stay out of the
  // measured jobs.
  {
    JobRecord warmup;
    Status status = RunJob(ctx, MakeJobSpec(~args.seed, 0), &warmup);
    if (!status.ok()) {
      std::fprintf(stderr, "warm-up job failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Closed loop: the next job starts when the previous one has its model.
  Stopwatch window;
  while (run.jobs.size() < kMaxJobs &&
         (run.jobs.size() < kMinJobs || window.ElapsedSeconds() < args.seconds)) {
    auto rec = std::make_unique<JobRecord>();
    Status status = RunJob(ctx, MakeJobSpec(args.seed, run.jobs.size()), rec.get());
    if (!status.ok()) {
      std::fprintf(stderr, "job %zu failed: %s\n", run.jobs.size(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("job %zu setup_s %.6f job_s %.6f search_s %.6f final_s %.6f "
                "evals %zu instances %zu test_metric %.6f\n",
                run.jobs.size(), rec->setup_s, rec->job_s, rec->search_s,
                rec->final_s, rec->evals, rec->instances, rec->test_metric);
    run.jobs.push_back(std::move(rec));
  }
  run.peak_rss_mb = PeakRssMb();
  size_t num_jobs = run.jobs.size();

  // Traced replay of the same jobs.
  std::vector<std::unique_ptr<JobRecord>> traced;
  double overhead_frac = 0.0;
  if (args.trace) {
    ctx.trace = true;
    for (size_t i = 0; i < num_jobs; ++i) {
      auto rec = std::make_unique<JobRecord>();
      Status status = RunJob(ctx, run.jobs[i]->spec, rec.get());
      if (!status.ok()) {
        std::fprintf(stderr, "traced job %zu failed: %s\n", i,
                     status.ToString().c_str());
        return 1;
      }
      traced.push_back(std::move(rec));
    }
    double untraced_s = Sum(run.jobs, [](const JobRecord& j) { return j.job_s; });
    double traced_s = Sum(traced, [](const JobRecord& j) { return j.job_s; });
    overhead_frac = Ratio(traced_s - untraced_s, untraced_s);
  }
  std::error_code ec;
  if (!ctx.checkpoint_path.empty()) {
    std::filesystem::remove(ctx.checkpoint_path, ec);
  }

  // Correctness gate: every job against the same job run serially with the
  // cache off. The reference jobs are independent, so they run side by side
  // on the pool, each one single-threaded.
  JobContext ref_ctx = ctx;
  ref_ctx.pool = nullptr;
  ref_ctx.use_cache = false;
  ref_ctx.trace = false;
  ref_ctx.checkpoint_path.clear();
  std::vector<std::unique_ptr<JobRecord>> refs(num_jobs);
  std::vector<Status> ref_status(num_jobs);
  Stopwatch gate_watch;
  pool.ParallelFor(num_jobs, [&](size_t i) {
    refs[i] = std::make_unique<JobRecord>();
    ref_status[i] = RunJob(ref_ctx, run.jobs[i]->spec, refs[i].get());
  });
  size_t mismatches = 0;
  for (size_t i = 0; i < num_jobs; ++i) {
    bool ok = ref_status[i].ok() && refs[i]->digest == run.jobs[i]->digest &&
              (!args.trace || refs[i]->digest == traced[i]->digest);
    if (!ok) {
      ++mismatches;
      std::printf("gate MISMATCH job %zu (data_seed %" PRIu64 ", search_seed %" PRIu64
                  "): %s\n",
                  i, run.jobs[i]->spec.data_seed, run.jobs[i]->spec.search_seed,
                  ref_status[i].ok() ? "result differs from serial cache-off run"
                                     : ref_status[i].ToString().c_str());
    }
  }
  std::printf("gate %zu/%zu jobs match the serial cache-off run (%.3g s)\n",
              num_jobs - mismatches, num_jobs, gate_watch.ElapsedSeconds());

  size_t tail_rank = 0;
  std::vector<Metric> e2e = EndToEndMetrics(run, &tail_rank);
  std::printf("jobs %zu; job_s_tail is percentile %.1f (%zu of %zu jobs beyond it)\n",
              num_jobs, 100.0 * static_cast<double>(tail_rank + 1) / static_cast<double>(num_jobs),
              num_jobs - tail_rank - 1, num_jobs);
  PrintMetrics("end_to_end", e2e);

  std::vector<Metric> reported;
  if (args.trace) {
    std::vector<Metric> layers = PerLayerMetrics(traced, busy_threads, overhead_frac);
    PrintMetrics("per_layer", layers);
    double raw = Sum(traced, [](const JobRecord& j) { return j.inner.raw_s_sum; });
    double self = Sum(traced, [](const JobRecord& j) {
      return std::accumulate(j.inner.self_s.begin(), j.inner.self_s.end(), 0.0);
    });
    double search = Sum(traced, [](const JobRecord& j) { return j.search_s; });
    std::printf("trace strategy spans: raw %.6g s, self %.6g s, search %.6g s\n",
                raw, self, search);
    reported = layers;
  } else {
    // Failure fractions are printed above; they are 0 on a healthy run, so
    // the JSON carries them as the attempted/failed counts instead.
    for (const Metric& m : e2e) {
      if (m.name != "failed_eval_frac" && m.name != "failed_fold_frac") {
        reported.push_back(m);
      }
    }
  }

  size_t attempted = 0;
  size_t failed = 0;
  for (const auto& job : run.jobs) {
    attempted += job->evals;
    failed += job->faults.failed_evals;
  }
  std::string metrics_json;
  for (const Metric& m : reported) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics_json += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              mismatches == 0 ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  return 0;
}
