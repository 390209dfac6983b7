// Google-benchmark microbenchmarks for the substrates: the MLP matrix
// products (both dispatch variants), MLP training epochs, k-means, grouping
// (Operation 1) and fold construction (Operation 2). These quantify the
// paper's claim that the grouping overhead is negligible next to model
// training (Section III-E).

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>

#include "cluster/balanced_kmeans.h"
#include "common/simd.h"
#include "cv/gen_folds.h"
#include "cv/grouping.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"
#include "ml/mlp.h"

namespace bhpo {
namespace {

Dataset BenchData(size_t n, size_t d) {
  BlobsSpec spec;
  spec.n = n;
  spec.num_features = d;
  spec.num_classes = 2;
  spec.clusters_per_class = 2;
  spec.seed = 1;
  return MakeBlobs(spec).value().Standardized();
}

// The three products one MLP training step runs per layer, at the layer
// shapes of the MLP workloads: a minibatch of `batch` rows through a layer
// with `fan_in` inputs and `fan_out` outputs.
//   forward   X (batch x fan_in) * W (fan_in x fan_out)        MatMul
//   gradient  X^T * delta (batch x fan_out)                     TransposeMatMul
//   backprop  delta * W^T                                       MatMulTranspose
// Each runs with the AVX2 kernel and with the scalar reference (the last
// argument; 1 = AVX2 when compiled in and supported). Outputs are written
// into reused buffers, as in training.
enum Product : int64_t { kForward, kGradient, kBackprop };

void BM_MlpProduct(benchmark::State& state) {
  const auto product = static_cast<Product>(state.range(0));
  const auto batch = static_cast<size_t>(state.range(1));
  const auto fan_in = static_cast<size_t>(state.range(2));
  const auto fan_out = static_cast<size_t>(state.range(3));
  const bool simd = state.range(4) != 0;
  const bool previous = SetSimdEnabled(simd);
  Rng rng(1);
  Matrix x = Matrix::RandomGaussian(batch, fan_in, &rng);
  Matrix w = Matrix::RandomGaussian(fan_in, fan_out, &rng);
  Matrix delta = Matrix::RandomGaussian(batch, fan_out, &rng);
  Matrix out, scratch;
  for (auto _ : state) {
    switch (product) {
      case kForward:
        x.MatMulInto(w, &out);
        break;
      case kGradient:
        x.TransposeMatMulInto(delta, &out);
        break;
      case kBackprop:
        delta.MatMulTransposeInto(w, &scratch, &out);
        break;
    }
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  static const char* const kNames[] = {"MatMul", "TransposeMatMul",
                                       "MatMulTranspose"};
  state.SetLabel(std::string(kNames[product]) +
                 (SimdActive() ? " avx2" : " scalar"));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch * fan_in * fan_out));
  SetSimdEnabled(previous);
}

void MlpProductArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"product", "batch", "fan_in", "fan_out", "simd"});
  // satimage (d = 36, 6 classes) through (50) / (50, 50), and kc-house
  // (d = 18, one target) through (40): input, hidden and output layers.
  const int64_t kLayers[][3] = {
      {200, 36, 50}, {200, 50, 50}, {200, 50, 6}, {240, 18, 40}, {240, 40, 1}};
  for (int64_t product : {kForward, kGradient, kBackprop}) {
    for (const auto& layer : kLayers) {
      for (int64_t simd : {1, 0}) {
        bench->Args({product, layer[0], layer[1], layer[2], simd});
      }
    }
  }
}
BENCHMARK(BM_MlpProduct)->Apply(MlpProductArgs);

void BM_MlpEpoch(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  MlpConfig config;
  config.hidden_layer_sizes = {50};
  config.solver = Solver::kAdam;
  config.max_iter = 1;
  for (auto _ : state) {
    MlpModel model(config);
    benchmark::DoNotOptimize(model.Fit(data));
  }
}
BENCHMARK(BM_MlpEpoch)->Arg(200)->Arg(500)->Arg(1000);

void BM_KMeans(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  KMeansOptions opts;
  opts.k = 3;
  opts.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KMeans(data.features(), opts));
  }
}
BENCHMARK(BM_KMeans)->Arg(200)->Arg(500)->Arg(1000);

// Section III-E claims grouping ~ one epoch of a small MLP; compare
// BM_BuildGrouping to BM_MlpEpoch at the same n.
void BM_BuildGrouping(benchmark::State& state) {
  Dataset data = BenchData(static_cast<size_t>(state.range(0)), 20);
  GroupingOptions opts;
  opts.num_groups = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildGrouping(data, opts));
  }
}
BENCHMARK(BM_BuildGrouping)->Arg(200)->Arg(500)->Arg(1000);

void BM_GenFolds(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset data = BenchData(n, 20);
  GroupingOptions opts;
  opts.num_groups = 2;
  Grouping grouping = BuildGrouping(data, opts).value();
  std::vector<size_t> subset(n);
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(2);
  GenFoldsOptions fold_opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenFolds(grouping, subset, fold_opts, &rng));
  }
}
BENCHMARK(BM_GenFolds)->Arg(200)->Arg(1000);

void BM_StratifiedKFold(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Dataset data = BenchData(n, 20);
  std::vector<size_t> subset(n);
  std::iota(subset.begin(), subset.end(), 0);
  Rng rng(3);
  StratifiedKFold builder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(data, subset, 5, &rng));
  }
}
BENCHMARK(BM_StratifiedKFold)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace bhpo

BENCHMARK_MAIN();
