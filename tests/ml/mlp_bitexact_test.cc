// Bit-exactness lock for MLP training. Each case fits one MlpModel with a
// fixed seed and compares an FNV-1a digest of everything the fit produced —
// the fit status, final loss and iteration count, every weight and bias bit,
// and the PredictProba / PredictValues bits on the training features and on
// a one-row batch — against a recorded constant.
//
// The cases cover every solver x activation x head, at input widths,
// hidden widths, output widths and batch sizes that land on every remainder
// of the matrix kernels' register tiles (rows mod 4, columns mod 8), plus
// inputs with exact zeros (the kernels' zero-skip path), early stopping,
// a partial last minibatch and a fit on a subset view. Any change to the
// summation order of a matrix product, to the minibatch schedule or to the
// optimizers changes a digest. ctest also runs the suite with BHPO_SIMD=off,
// so the portable and the AVX2 kernels must both reproduce every constant.
//
// The constants depend on libm's exp/tanh/log (activations, softmax, loss):
// another C library produces different (equally valid) fits and needs its
// own constants.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_view.h"
#include "data/synthetic.h"
#include "ml/mlp.h"

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
  void Double(double d) { U64(std::bit_cast<uint64_t>(d)); }
  void Matrix(const bhpo::Matrix& m) {
    U64(m.rows());
    U64(m.cols());
    for (double x : m.data()) Double(x);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

struct LockCase {
  const char* name;
  uint64_t digest;
  Solver solver;
  Activation activation;
  Task task;
  size_t n;
  size_t d;
  std::vector<size_t> hidden;
  int num_classes = 3;
  size_t batch_size = 0;
  bool early_stopping = false;
  // Zero every third feature value, so products skip zero inputs.
  bool sparse = false;
  // Fit on every other row through a subset view instead of the full set.
  bool subset = false;
};

Dataset MakeData(const LockCase& c) {
  Dataset data;
  if (c.task == Task::kClassification) {
    BlobsSpec spec;
    spec.n = c.n;
    spec.num_features = c.d;
    spec.num_classes = c.num_classes;
    spec.clusters_per_class = 1;
    spec.seed = 17;
    data = MakeBlobs(spec).value().Standardized();
  } else {
    RegressionSpec spec;
    spec.n = c.n;
    spec.num_features = c.d;
    spec.seed = 19;
    data = MakeRegression(spec).value().Standardized();
  }
  if (!c.sparse) return data;
  Matrix x = data.features();
  for (size_t i = 0; i < x.size(); i += 3) x.data()[i] = 0.0;
  if (c.task == Task::kClassification) {
    return Dataset::Classification(std::move(x), data.labels(),
                                   data.num_classes())
        .value();
  }
  return Dataset::Regression(std::move(x), data.targets()).value();
}

uint64_t FitDigest(const LockCase& c) {
  Dataset data = MakeData(c);
  MlpConfig config;
  config.hidden_layer_sizes = c.hidden;
  config.activation = c.activation;
  config.solver = c.solver;
  config.max_iter = c.solver == Solver::kLbfgs ? 12 : 6;
  config.learning_rate_init = c.solver == Solver::kSgd ? 0.05 : 0.01;
  config.batch_size = c.batch_size;
  config.early_stopping = c.early_stopping;
  config.n_iter_no_change = 2;
  config.seed = 23;
  MlpModel model(config);
  Status status;
  if (c.subset) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < data.n(); i += 2) rows.push_back(i);
    status = model.Fit(DatasetView(data, std::move(rows)));
  } else {
    status = model.Fit(data);
  }
  EXPECT_TRUE(status.ok()) << status.ToString();

  Fnv1a h;
  h.U64(status.ok() ? 1 : 0);
  h.Double(model.final_loss());
  h.U64(static_cast<uint64_t>(model.iterations_run()));
  for (const Matrix& w : model.weights()) h.Matrix(w);
  for (const Matrix& b : model.biases()) h.Matrix(b);
  const Matrix one_row = data.features().SelectRows({data.n() - 1});
  for (const Matrix* x : {&data.features(), &one_row}) {
    if (c.task == Task::kClassification) {
      h.Matrix(model.PredictProba(*x));
    } else {
      for (double v : model.PredictValues(*x)) h.Double(v);
    }
  }
  return h.value();
}

constexpr Task kCls = Task::kClassification;
constexpr Task kReg = Task::kRegression;

// Shapes rotate through d in {1, 7, 36}, hidden in {(3), (30,30), (50)} and
// n in {5, 33, 201} so that every solver x activation x head meets several
// tile remainders.
std::vector<LockCase> Cases() {
  using A = Activation;
  using S = Solver;
  return {
      {"lbfgs_identity_cls", 0x98a620965323b9c8ULL,
       S::kLbfgs, A::kIdentity, kCls, 33, 7, {3}},
      {"lbfgs_logistic_cls", 0x8cf69fc84212396eULL,
       S::kLbfgs, A::kLogistic, kCls, 201, 36, {30, 30}},
      {"lbfgs_tanh_cls", 0xc0eb778960c9f68bULL,
       S::kLbfgs, A::kTanh, kCls, 5, 1, {50}, 2},
      {"lbfgs_relu_cls", 0x9164843a52a5a0d0ULL,
       S::kLbfgs, A::kRelu, kCls, 201, 7, {50}, 6},
      {"lbfgs_identity_reg", 0x96e04dc575acc6cbULL,
       S::kLbfgs, A::kIdentity, kReg, 201, 1, {30, 30}},
      {"lbfgs_logistic_reg", 0x45c01ed529b81cbeULL,
       S::kLbfgs, A::kLogistic, kReg, 33, 36, {50}},
      {"lbfgs_tanh_reg", 0x0c64a0b09c85f0c5ULL,
       S::kLbfgs, A::kTanh, kReg, 201, 7, {3}},
      {"lbfgs_relu_reg", 0x2b4e304048a18f58ULL,
       S::kLbfgs, A::kRelu, kReg, 33, 36, {30, 30}},
      {"sgd_identity_cls", 0x14b11d9052d64ebeULL,
       S::kSgd, A::kIdentity, kCls, 201, 36, {50}, 6},
      {"sgd_logistic_cls", 0x9a1a2ab164da0e7bULL,
       S::kSgd, A::kLogistic, kCls, 33, 1, {3}, 2},
      {"sgd_tanh_cls", 0xb24089a580136908ULL,
       S::kSgd, A::kTanh, kCls, 201, 7, {30, 30}},
      {"sgd_relu_cls", 0x4450cf6457180459ULL,
       S::kSgd, A::kRelu, kCls, 5, 36, {50}},
      {"sgd_identity_reg", 0x186afae10457f42cULL,
       S::kSgd, A::kIdentity, kReg, 33, 7, {50}},
      {"sgd_logistic_reg", 0x891208bcff87ab7eULL,
       S::kSgd, A::kLogistic, kReg, 201, 36, {3}},
      {"sgd_tanh_reg", 0xf1f63359d2ed9b52ULL,
       S::kSgd, A::kTanh, kReg, 5, 7, {30, 30}},
      {"sgd_relu_reg", 0x5f7c4d7d05133013ULL,
       S::kSgd, A::kRelu, kReg, 201, 1, {50}},
      {"adam_identity_cls", 0x9d09d866286dfacfULL,
       S::kAdam, A::kIdentity, kCls, 5, 7, {30, 30}},
      {"adam_logistic_cls", 0x4af68f7e9d3b66d7ULL,
       S::kAdam, A::kLogistic, kCls, 201, 7, {50}, 6},
      {"adam_tanh_cls", 0x95edfea6ca9c8f0dULL,
       S::kAdam, A::kTanh, kCls, 33, 36, {3}},
      {"adam_relu_cls", 0x6bc955c5a8fae043ULL,
       S::kAdam, A::kRelu, kCls, 201, 36, {30, 30}, 6},
      {"adam_identity_reg", 0x862693dfd8e90c10ULL,
       S::kAdam, A::kIdentity, kReg, 201, 36, {3}},
      {"adam_logistic_reg", 0x7ab64d96df8182b9ULL,
       S::kAdam, A::kLogistic, kReg, 5, 1, {30, 30}},
      {"adam_tanh_reg", 0x5918257533ce7970ULL,
       S::kAdam, A::kTanh, kReg, 201, 7, {50}},
      {"adam_relu_reg", 0xa54aacfa04c6c84aULL,
       S::kAdam, A::kRelu, kReg, 33, 7, {3}},
      // Exact zeros in the inputs (and relu zeros in the hidden layer).
      {"lbfgs_relu_cls_sparse", 0xbb3a3c9549371f13ULL,
       S::kLbfgs, A::kRelu, kCls, 201, 36, {30, 30}, 6, 0, false, true},
      {"adam_relu_reg_sparse", 0x3a1d61fa5dfe81b6ULL,
       S::kAdam, A::kRelu, kReg, 201, 36, {50}, 3, 0, false, true},
      // Partial last minibatch: 201 = 6 * 32 + 9 and 33 = 32 + 1.
      {"sgd_tanh_cls_partial_batch", 0x7eaf504fb0f38612ULL,
       S::kSgd, A::kTanh, kCls, 201, 36, {50}, 6, 32},
      {"adam_logistic_reg_partial_batch", 0xae67240684309b27ULL,
       S::kAdam, A::kLogistic, kReg, 33, 7, {30, 30}, 3, 32},
      // Early stopping: validation holdout scored every epoch, best weights
      // restored at the end.
      {"adam_relu_cls_early_stopping", 0x1d4da666a4afa813ULL,
       S::kAdam, A::kRelu, kCls, 201, 36, {50}, 6, 0, true},
      {"sgd_logistic_reg_early_stopping", 0x08730a45f9c61686ULL,
       S::kSgd, A::kLogistic, kReg, 201, 7, {30, 30}, 3, 64, true},
      // Subset views: minibatches gathered from a view, L-BFGS materializing
      // it once.
      {"adam_tanh_cls_subset", 0xe0f7a06a83ac37a3ULL,
       S::kAdam, A::kTanh, kCls, 201, 36, {50}, 6, 0, false, false, true},
      {"lbfgs_logistic_reg_subset", 0xd33c6d1b050adb69ULL,
       S::kLbfgs, A::kLogistic, kReg, 201, 7, {30, 30}, 3, 0, false, false,
       true},
  };
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(MlpBitExactTest, FitsMatchRecordedDigests) {
  for (const LockCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Hex(FitDigest(c)), Hex(c.digest));
  }
}

// Refitting is deterministic within one process: no state survives from one
// fit to the next.
TEST(MlpBitExactTest, RefitReproducesDigest) {
  for (const LockCase& c : Cases()) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(FitDigest(c), FitDigest(c));
  }
}

}  // namespace
}  // namespace bhpo
