// Reproduces the Section IV-B side remark on non-bandit baselines: "SMAC3
// achieved a test accuracy of 96.62% (1880s), Optuna 96.42% (1776s), and
// the random approach 96.73% (1798s)" on NTICUSdroid — i.e. under a
// matched time budget the SMBO methods land in the same band as random
// search, which is why the paper keeps only random search in Table IV.
// SHA+ is added for contrast: multi-fidelity scheduling is what actually
// moves the needle at this budget.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "data/paper_datasets.h"
#include "hpo/bohb.h"
#include "hpo/sequential_search.h"
#include "hpo/sha.h"
#include "hpo/smac.h"

namespace {

using namespace bhpo;          // NOLINT: harness binary.
using namespace bhpo::bench;   // NOLINT

struct Row {
  Stats test;
  Stats seconds;
};

}  // namespace

int main() {
  BenchConfig bc = GetBenchConfig();
  PrintHeader("Section IV-B remark — SMBO baselines vs random vs SHA+ "
              "(NTICUSdroid)",
              "random(10 cfgs) | SMAC-style RF+EI(20) | TPE/Optuna-style(20)"
              " | SHA+ (162 cfgs, enhanced)",
              bc);

  const std::vector<std::string> methods = {"random", "smac", "tpe", "SHA+"};
  std::printf("\n%-8s %-16s %-12s\n", "method", "test(%)", "time(s)");

  for (const std::string& method : methods) {
    std::vector<double> tests, times;
    for (int seed = 0; seed < bc.seeds; ++seed) {
      TrainTestSplit data =
          MakePaperDataset("NTICUSdroid", 3000 + seed, bc.scale).value();
      ConfigSpace space = ConfigSpace::PaperSpace(4);

      StrategyOptions options;
      options.factory.max_iter = bc.max_iter;
      options.factory.seed = 11 * seed;

      std::unique_ptr<EvalStrategy> strategy;
      if (method == "SHA+") {
        GroupingOptions grouping;
        grouping.seed = 100 + seed;
        ScoringOptions scoring;
        scoring.use_variance = true;
        strategy = EnhancedStrategy::Create(data.train, grouping,
                                            GenFoldsOptions(), scoring,
                                            options)
                       .value();
      } else {
        strategy = std::make_unique<VanillaStrategy>(options);
      }

      RandomConfigSampler random_sampler(&space);
      SmacConfigSampler smac_sampler(&space);
      TpeConfigSampler tpe_sampler(&space);
      std::unique_ptr<HpoOptimizer> optimizer;
      if (method == "random") {
        optimizer = std::make_unique<SequentialSearch>(&random_sampler,
                                                       strategy.get(), 10);
      } else if (method == "smac") {
        optimizer = std::make_unique<SequentialSearch>(&smac_sampler,
                                                       strategy.get(), 20);
      } else if (method == "tpe") {
        optimizer = std::make_unique<SequentialSearch>(&tpe_sampler,
                                                       strategy.get(), 20);
      } else {
        optimizer = std::make_unique<SuccessiveHalving>(space.EnumerateGrid(),
                                                        strategy.get());
      }

      Stopwatch watch;
      Rng rng(7000 + seed);
      auto result = optimizer->Optimize(data.train, &rng);
      BHPO_CHECK(result.ok()) << result.status().ToString();
      auto final = EvaluateFinalConfig(result->best_config, data.train,
                                       data.test, EvalMetric::kAccuracy,
                                       options.factory);
      times.push_back(watch.ElapsedSeconds());
      tests.push_back(final.ok() ? final->test_metric : 0.0);
    }
    std::printf("%-8s %-16s %-12s\n", method.c_str(),
                FmtStats(ComputeStats(tests)).c_str(),
                FmtStats(ComputeStats(times), 1.0).c_str());
  }

  std::printf("\npaper reference (NTICUSdroid): SMAC3 96.62 | Optuna 96.42 "
              "| random 96.73 | SHA+ 96.92\n"
              "shape: the three full-budget methods bunch together; SHA+ "
              "matches or beats them in less time.\n");
  return 0;
}
