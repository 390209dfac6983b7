// Microbenchmark for the indexed-gather kernel and tree training. Two
// measurements:
//
//  1. Subset materialization (the rung-evaluation hot path): gather subsets
//     of an `n x d` feature matrix at successive-halving rung sizes
//     (n/27, n/9, n/3 and a 90% fold complement) through two index
//     patterns — a sorted fold complement (contiguous blocks, the shape CV
//     and rung promotion produce) and a shuffled bootstrap (no runs) —
//     with the historical per-row scalar loop versus the run-coalescing +
//     optional-AVX2 kernel. Small rungs are latency- and call-overhead-
//     bound, where coalescing wins big; the 90% gather is DRAM-bandwidth-
//     bound on most machines and reported for honesty, not headlines.
//
//  2. Tree training (the tree-fit hot path: one presorted SortedColumns
//     index per fit, walk, sort or kept node orders): a single
//     DecisionTree::Fit on blobs, then RandomForest (32 trees, depth 6,
//     sqrt(d) features) and GbdtModel (4 rounds, depth 6) fits at the a9a
//     CASH shape — d = 80, on a rung-sized (110-row) and a fold-sized
//     (480-row) training view — and the same two families as regressors
//     (d/3 features per forest split) on those views with the labels as
//     targets, which times the regression scan that a GBDT's residual
//     trees run.
//
//  3. The presorted index's two costs, which the best-of-reps fit times
//     above cannot separate (only a dataset's first walking fit pays the
//     first): building the a9a training set's FeatureOrder, and one
//     SortedColumns::Build on the 110- and 480-row views once it exists.
//
// Emits machine-readable JSON:
//   {"n":..,"d":..,
//    "gather":[{"rows":..,"pattern":..,"scalar_ms":..,"kernel_ms":..,
//               "speedup":..},..],
//    "headline_speedup":..,
//    "tree":{"default_ms":..},
//    "ensemble":[{"model":..,"rows":..,"d":..,"default_ms":..},..],
//    "presort":{"parent_rows":..,"d":..,"order_build_ms":..,
//               "build":[{"rows":..,"ms":..},..]},
//    "simd_compiled":..,"simd_active":..}
// headline_speedup is the fold-complement gather at the smallest rung;
// each default_ms, order_build_ms and build ms is a best-of-reps time.
// Every timed gather is checksummed against the scalar reference; any
// divergence aborts the bench. The trees themselves are locked by digest
// in the tree tests.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/gather.h"
#include "common/rng.h"
#include "common/simd.h"
#include "data/paper_datasets.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/sorted_columns.h"

namespace bhpo {
namespace {

// Best-of-reps wall time in milliseconds; *sink defeats dead-code
// elimination of the measured work.
template <typename Fn>
double TimeMs(int reps, double* sink, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    *sink += fn();
    auto end = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

// The pre-kernel Matrix::SelectRows / GatherFeatures body: one copy per
// row, no run coalescing, no prefetch, no SIMD dispatch.
void ScalarGather(const double* src, size_t cols, const size_t* indices,
                  size_t count, double* dst) {
  for (size_t i = 0; i < count; ++i) {
    std::memcpy(dst + i * cols, src + indices[i] * cols,
                cols * sizeof(double));
  }
}

// Sorted subset with one contiguous span held out — the shape of both a CV
// fold complement and a rung subset carried forward by promotion. The
// held-out span sits mid-matrix so the complement is always two coalesced
// runs, never a degenerate single prefix.
std::vector<size_t> FoldComplement(size_t n, size_t rows) {
  std::vector<size_t> indices;
  indices.reserve(rows);
  size_t held_out = n - rows;
  size_t start = rows / 2;
  for (size_t i = 0; i < n && indices.size() < rows; ++i) {
    if (i < start || i >= start + held_out) indices.push_back(i);
  }
  return indices;
}

std::vector<size_t> Shuffled(size_t n, size_t rows, Rng* rng) {
  std::vector<size_t> indices(rows);
  for (size_t& idx : indices) idx = rng->UniformIndex(n);
  return indices;
}

// The first prediction of `model` on `test`: a class probability or a
// value.
template <typename M>
double FirstPrediction(const M& model, const Matrix& test,
                       bool classification) {
  if (classification) {
    return model.PredictProba(test)(0, 0);
  }
  return model.PredictValues(test)[0];
}

// One ensemble family ("random_forest" or "gbdt", either suffixed
// "_regression" when `data` is a regression set) at one training size:
// its best-of-reps fit time. Returns the JSON record.
std::string BenchEnsemble(const char* name, const Dataset& data,
                          const Matrix& test, size_t rows, int reps,
                          double* sink) {
  std::vector<size_t> first(rows);
  std::iota(first.begin(), first.end(), 0);
  DatasetView train(data, first);
  bool forest = std::string(name).starts_with("random_forest");
  double default_ms = TimeMs(reps, sink, [&] {
    if (forest) {
      RandomForestConfig config;
      config.num_trees = 32;
      config.seed = 5;
      // max_features 0 = sqrt(d), or d/3 for regression.
      config.tree.max_depth = 6;
      RandomForest model(config);
      BHPO_CHECK(model.Fit(train).ok());
      return FirstPrediction(model, test, data.is_classification());
    }
    GbdtConfig config;
    config.num_rounds = 4;
    config.max_depth = 6;
    config.seed = 5;
    GbdtModel model(config);
    BHPO_CHECK(model.Fit(train).ok());
    return FirstPrediction(model, test, data.is_classification());
  });
  size_t d = data.num_features();
  std::fprintf(stderr, "%-24s rows %4zu d %zu  fit %8.3f ms\n", name, rows,
               d, default_ms);
  return "{\"model\": \"" + std::string(name) +
         "\", \"rows\": " + std::to_string(rows) +
         ", \"d\": " + std::to_string(d) +
         ", \"default_ms\": " + std::to_string(default_ms) + "}";
}

// The presorted index's costs on the a9a training set: the one-time
// FeatureOrder build (timed on fresh copies, which share no order) and the
// per-fit SortedColumns::Build on its first 110 and 480 rows. Returns the
// JSON record.
std::string BenchPresort(const Dataset& train, int reps, double* sink) {
  double order_ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Dataset fresh = Dataset::Classification(Matrix(train.features()),
                                            train.labels(),
                                            train.num_classes())
                        .value();
    order_ms = std::min(order_ms, TimeMs(1, sink, [&] {
      return static_cast<double>(fresh.feature_order().Order(0)[0]);
    }));
  }
  std::fprintf(stderr, "feature order  rows %4zu d %zu  build %8.3f ms\n",
               train.n(), train.num_features(), order_ms);
  std::string build_json;
  for (size_t rows : {size_t{110}, size_t{480}}) {
    std::vector<size_t> first(rows);
    std::iota(first.begin(), first.end(), 0);
    DatasetView view(train, first);
    double build_ms = TimeMs(reps, sink, [&] {
      SortedColumns index = SortedColumns::Build(view).value();
      return static_cast<double>(index.Order(0)[0]);
    });
    std::fprintf(stderr, "index build    rows %4zu d %zu  build %8.3f ms\n",
                 rows, train.num_features(), build_ms);
    if (!build_json.empty()) build_json += ", ";
    build_json += "{\"rows\": " + std::to_string(rows) +
                  ", \"ms\": " + std::to_string(build_ms) + "}";
  }
  return "{\"parent_rows\": " + std::to_string(train.n()) +
         ", \"d\": " + std::to_string(train.num_features()) +
         ", \"order_build_ms\": " + std::to_string(order_ms) +
         ", \"build\": [" + build_json + "]}";
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int n = flags.GetInt("n", 50000).value();
  int d = flags.GetInt("d", 50).value();
  int reps = flags.GetInt("reps", 30).value();
  int tree_n = flags.GetInt("tree-n", 8000).value();
  int tree_depth = flags.GetInt("tree-depth", 8).value();
  std::string out = flags.GetString("out", "BENCH_gather.json");
  Status unrecognized = flags.CheckUnrecognized();
  if (!unrecognized.ok()) {
    std::fprintf(stderr, "%s\n", unrecognized.ToString().c_str());
    return 1;
  }

  BlobsSpec spec;
  spec.n = static_cast<size_t>(n);
  spec.num_features = static_cast<size_t>(d);
  spec.num_classes = 4;
  spec.seed = 17;
  Dataset data = MakeBlobs(spec).value();
  const double* src = data.features().data().data();
  size_t cols = data.num_features();

  // Successive-halving rung sizes for eta=3 plus a 90% CV train split.
  std::vector<size_t> sizes = {data.n() / 27, data.n() / 9, data.n() / 3,
                               data.n() * 9 / 10};
  Rng rng(3);

  double sink = 0.0;
  double headline = 0.0;
  std::string gather_json;
  for (size_t rows : sizes) {
    if (rows == 0) continue;
    for (int pattern = 0; pattern < 2; ++pattern) {
      const char* name = pattern == 0 ? "fold_complement" : "shuffled";
      std::vector<size_t> indices = pattern == 0
                                        ? FoldComplement(data.n(), rows)
                                        : Shuffled(data.n(), rows, &rng);
      // Scale inner iterations so every timed sample does comparable work;
      // microsecond-scale single gathers are too noisy to compare.
      int iters = static_cast<int>(
          std::max<size_t>(1, 2000000 / std::max<size_t>(rows, 1)));

      std::vector<double> reference(rows * cols);
      std::vector<double> dst(reference.size());
      ScalarGather(src, cols, indices.data(), indices.size(),
                   reference.data());

      double scalar_ms = TimeMs(reps, &sink, [&] {
        for (int it = 0; it < iters; ++it) {
          ScalarGather(src, cols, indices.data(), indices.size(), dst.data());
        }
        return dst[0];
      });
      BHPO_CHECK_EQ(0, std::memcmp(dst.data(), reference.data(),
                                   reference.size() * sizeof(double)));

      std::fill(dst.begin(), dst.end(), 0.0);
      double kernel_ms = TimeMs(reps, &sink, [&] {
        for (int it = 0; it < iters; ++it) {
          GatherRows(src, cols, cols, indices.data(), indices.size(),
                     dst.data());
        }
        return dst[0];
      });
      BHPO_CHECK_EQ(0, std::memcmp(dst.data(), reference.data(),
                                   reference.size() * sizeof(double)));

      double speedup = scalar_ms / kernel_ms;
      if (pattern == 0 && headline == 0.0) headline = speedup;
      std::fprintf(stderr,
                   "rows %6zu %-16s scalar %9.3f ms  kernel %9.3f ms  "
                   "(x%d)  %.2fx\n",
                   rows, name, scalar_ms, kernel_ms, iters, speedup);
      if (!gather_json.empty()) gather_json += ", ";
      gather_json += "{\"rows\": " + std::to_string(rows) +
                     ", \"pattern\": \"" + name +
                     "\", \"scalar_ms\": " + std::to_string(scalar_ms) +
                     ", \"kernel_ms\": " + std::to_string(kernel_ms) +
                     ", \"speedup\": " + std::to_string(speedup) + "}";
    }
  }

  // Tree fits on a smaller set (they are far more expensive per pass than
  // raw gathers).
  BlobsSpec tree_spec;
  tree_spec.n = static_cast<size_t>(tree_n);
  tree_spec.num_features = static_cast<size_t>(d);
  tree_spec.num_classes = 4;
  tree_spec.seed = 18;
  Dataset tree_data = MakeBlobs(tree_spec).value();
  int tree_reps = std::max(1, reps / 6);

  double tree_ms = TimeMs(tree_reps, &sink, [&] {
    DecisionTreeConfig config;
    config.max_depth = tree_depth;
    DecisionTree tree(config);
    BHPO_CHECK(tree.Fit(tree_data).ok());
    return static_cast<double>(tree.node_count());
  });
  std::fprintf(stderr, "tree fit (n=%d depth=%d) %8.3f ms  (sink %.3f)\n",
               tree_n, tree_depth, tree_ms, sink);

  // Ensemble fits at the a9a CASH shape: a9a x0.3 has 600 training rows
  // and 80 features; 110 rows is an early rung, 480 a 5-fold training side.
  TrainTestSplit a9a = MakePaperDataset("a9a", 7, 0.3).value();
  std::string presort_json = BenchPresort(a9a.train, reps, &sink);
  // The a9a labels as regression targets: what a binary GBDT's first
  // residual trees fit.
  std::vector<double> label_values(a9a.train.labels().begin(),
                                   a9a.train.labels().end());
  Dataset a9a_regression =
      Dataset::Regression(Matrix(a9a.train.features()),
                          std::move(label_values))
          .value();
  std::string ensemble_json;
  for (const char* model : {"random_forest", "gbdt", "random_forest_regression",
                            "gbdt_regression"}) {
    bool regression = std::string(model).ends_with("_regression");
    for (size_t rows : {size_t{110}, size_t{480}}) {
      if (!ensemble_json.empty()) ensemble_json += ", ";
      ensemble_json += BenchEnsemble(
          model, regression ? a9a_regression : a9a.train,
          a9a.test.features(), rows, tree_reps, &sink);
    }
  }

  std::string json =
      "{\"n\": " + std::to_string(n) + ", \"d\": " + std::to_string(d) +
      ", \"gather\": [" + gather_json +
      "], \"headline_speedup\": " + std::to_string(headline) +
      ", \"tree\": {\"default_ms\": " + std::to_string(tree_ms) +
      "}, \"ensemble\": [" + ensemble_json +
      "], \"presort\": " + presort_json + ", \"simd_compiled\": " +
      (SimdCompiled() ? "true" : "false") +
      ", \"simd_active\": " + (SimdActive() ? "true" : "false") + "}";
  std::printf("%s\n", json.c_str());

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(file, "%s\n", json.c_str());
  std::fclose(file);
  return 0;
}

}  // namespace
}  // namespace bhpo

int main(int argc, char** argv) { return bhpo::Main(argc, argv); }
