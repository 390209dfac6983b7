// Microbenchmark for the cross-validation hot path: legacy copy-based
// serial CV (one Dataset::Subset per fold side, the pre-DatasetView code
// path, replicated inline here) versus zero-copy view CV, serial and
// fold-parallel. The model is a deliberately lightweight nearest-centroid
// classifier: one pass over the training rows per fit, so the measurement
// isolates the harness cost (materializing fold copies) instead of being
// swamped by solver arithmetic.
//
// Emits machine-readable JSON:
//   {"n":..,"d":..,"k":..,"serial_ms":..,"parallel_ms":..,"speedup":..,
//    "view_serial_ms":..,"threads":..}
// where serial_ms is the legacy copy path, parallel_ms the view+pool path
// and speedup = serial_ms / parallel_ms.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "cv/cross_validate.h"
#include "cv/stratified_kfold.h"
#include "data/synthetic.h"

namespace bhpo {
namespace {

// Nearest-centroid classifier: Fit averages feature rows per class,
// predict assigns the closest centroid (squared Euclidean).
class CentroidModel : public Model {
 public:
  Status Fit(const DatasetView& train) override {
    if (!train.valid() || train.n() == 0) {
      return Status::InvalidArgument("empty training view");
    }
    d_ = train.num_features();
    k_ = train.num_classes();
    centroids_.assign(static_cast<size_t>(k_) * d_, 0.0);
    std::vector<size_t> counts(k_, 0);
    for (size_t i = 0; i < train.n(); ++i) {
      const double* __restrict__ row = train.row(i);
      int y = train.label(i);
      double* __restrict__ centroid =
          &centroids_[static_cast<size_t>(y) * d_];
      for (size_t j = 0; j < d_; ++j) centroid[j] += row[j];
      ++counts[y];
    }
    for (int c = 0; c < k_; ++c) {
      if (counts[c] == 0) continue;
      double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d_; ++j) {
        centroids_[static_cast<size_t>(c) * d_ + j] *= inv;
      }
    }
    // Feature-major copy for prediction, padded to a fixed stride so the
    // distance loop has a compile-time inner trip count: for each feature j
    // the per-class values sit contiguously. Padding classes live at +inf
    // so they never win the argmin.
    BHPO_CHECK_LE(static_cast<size_t>(k_), kStride);
    transposed_.assign(d_ * kStride,
                       std::numeric_limits<double>::infinity());
    for (int c = 0; c < k_; ++c) {
      for (size_t j = 0; j < d_; ++j) {
        transposed_[j * kStride + c] =
            centroids_[static_cast<size_t>(c) * d_ + j];
      }
    }
    return Status::OK();
  }

  std::vector<int> PredictLabels(const FeatureRows& rows) const override {
    std::vector<int> labels(rows.n());
    for (size_t r = 0; r < rows.n(); ++r) labels[r] = Nearest(rows.row(r));
    return labels;
  }

  std::vector<double> PredictValues(const FeatureRows&) const override {
    BHPO_CHECK(false) << "classification-only bench model";
    return {};
  }

 private:
  // Class-inner accumulation over the feature-major table: the distance
  // sums for all centroids advance together (independent accumulator
  // chains, contiguous loads, fixed unrolled trip count), so there is no
  // per-class dependency chain and no inner-loop bookkeeping.
  int Nearest(const double* __restrict__ row) const {
    double dists[kStride] = {0.0, 0.0, 0.0, 0.0};
    const double* __restrict__ table = transposed_.data();
    for (size_t j = 0; j < d_; ++j) {
      double x = row[j];
      const double* cell = &table[j * kStride];
      for (size_t c = 0; c < kStride; ++c) {
        double diff = x - cell[c];
        dists[c] += diff * diff;
      }
    }
    int best = 0;
    for (int c = 1; c < k_; ++c) {
      if (dists[c] < dists[best]) best = c;
    }
    return best;
  }

  // Classes supported by the unrolled distance kernel; plenty for a bench
  // dataset and small enough that the accumulators stay in registers.
  static constexpr size_t kStride = 4;

  size_t d_ = 0;
  int k_ = 0;
  std::vector<double> centroids_;
  std::vector<double> transposed_;  // [feature][class] mirror of centroids_.
};

// The pre-view library behavior, kept here as the baseline: materialize
// both sides of every fold with Dataset::Subset, then fit/score on the
// copies.
double LegacyCopyCv(const Dataset& data, const FoldSet& folds) {
  double mean = 0.0;
  size_t used = 0;
  for (size_t f = 0; f < folds.num_folds(); ++f) {
    Dataset train = data.Subset(folds.ComplementOf(f));
    Dataset val = data.Subset(folds.folds[f]);
    CentroidModel model;
    BHPO_CHECK(model.Fit(train).ok());
    mean += EvaluateModel(model, val);
    ++used;
  }
  return mean / static_cast<double>(used);
}

double ViewCv(const Dataset& data, const FoldSet& folds, ThreadPool* pool) {
  CvOptions options;
  options.pool = pool;
  CvOutcome outcome =
      CrossValidate(DatasetView(data), folds,
                    [](size_t) { return std::make_unique<CentroidModel>(); },
                    options)
          .value();
  return outcome.mean;
}

// Best-of-reps wall time in milliseconds; *sink accumulates the scores so
// the measured work cannot be optimized away.
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

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int n = flags.GetInt("n", 50000).value();
  int d = flags.GetInt("d", 50).value();
  int k = flags.GetInt("k", 10).value();
  int threads = flags.GetInt("threads", 0).value();  // 0 = hardware.
  int reps = flags.GetInt("reps", 3).value();
  std::string out = flags.GetString("out", "BENCH_cv_hotpath.json");
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

  std::vector<size_t> all(data.n());
  for (size_t i = 0; i < data.n(); ++i) all[i] = i;
  Rng rng(1);
  StratifiedKFold builder;
  FoldSet folds =
      builder.Build(data, all, static_cast<size_t>(k), &rng).value();

  ThreadPool pool(static_cast<size_t>(threads));

  double sink = 0.0;
  double serial_ms = TimeMs(reps, &sink,
                            [&] { return LegacyCopyCv(data, folds); });
  double view_serial_ms =
      TimeMs(reps, &sink, [&] { return ViewCv(data, folds, nullptr); });
  double parallel_ms =
      TimeMs(reps, &sink, [&] { return ViewCv(data, folds, &pool); });

  std::string json =
      "{\"n\": " + std::to_string(n) + ", \"d\": " + std::to_string(d) +
      ", \"k\": " + std::to_string(k) +
      ", \"serial_ms\": " + std::to_string(serial_ms) +
      ", \"parallel_ms\": " + std::to_string(parallel_ms) +
      ", \"speedup\": " + std::to_string(serial_ms / parallel_ms) +
      ", \"view_serial_ms\": " + std::to_string(view_serial_ms) +
      ", \"threads\": " + std::to_string(pool.num_threads()) + "}";
  std::printf("%s\n", json.c_str());
  std::fprintf(stderr, "copy-serial -> view-serial: %.2fx, -> view+pool: %.2fx (sink %.3f)\n",
               serial_ms / view_serial_ms, serial_ms / parallel_ms, sink);

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
