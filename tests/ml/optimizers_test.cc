#include <cmath>

#include <gtest/gtest.h>

#include "ml/adam.h"
#include "ml/sgd.h"

namespace bhpo {
namespace {

// Minimizing f(p) = 0.5 * ||p - target||^2: gradient is (p - target).
std::vector<Matrix> QuadraticGrad(const std::vector<Matrix>& params,
                                  const std::vector<Matrix>& targets) {
  std::vector<Matrix> grads;
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix g = params[i];
    g.AddScaled(targets[i], -1.0);
    grads.push_back(std::move(g));
  }
  return grads;
}

double DistanceTo(const std::vector<Matrix>& params,
                  const std::vector<Matrix>& targets) {
  double acc = 0.0;
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix d = params[i];
    d.AddScaled(targets[i], -1.0);
    acc += d.SumSquares();
  }
  return std::sqrt(acc);
}

class UpdaterConvergenceTest : public ::testing::TestWithParam<bool> {};

TEST(SgdUpdaterTest, ConvergesOnQuadratic) {
  std::vector<Matrix> params = {Matrix(2, 2, 5.0), Matrix(1, 3, -4.0)};
  std::vector<Matrix> targets = {Matrix(2, 2, 1.0), Matrix(1, 3, 2.0)};
  SgdUpdater sgd(0.9, true);
  for (int step = 0; step < 300; ++step) {
    sgd.Step(&params, QuadraticGrad(params, targets), 0.05);
  }
  EXPECT_LT(DistanceTo(params, targets), 1e-3);
}

TEST(SgdUpdaterTest, ZeroMomentumIsPlainGradientDescent) {
  std::vector<Matrix> params = {Matrix(1, 1, 10.0)};
  std::vector<Matrix> targets = {Matrix(1, 1, 0.0)};
  SgdUpdater sgd(0.0, false);
  sgd.Step(&params, QuadraticGrad(params, targets), 0.1);
  // p <- 10 - 0.1 * 10 = 9.
  EXPECT_NEAR(params[0](0, 0), 9.0, 1e-12);
}

TEST(SgdUpdaterTest, MomentumAcceleratesOverPlain) {
  auto run = [](double momentum, bool nesterov) {
    std::vector<Matrix> params = {Matrix(1, 1, 10.0)};
    std::vector<Matrix> targets = {Matrix(1, 1, 0.0)};
    SgdUpdater sgd(momentum, nesterov);
    for (int i = 0; i < 30; ++i) {
      sgd.Step(&params, QuadraticGrad(params, targets), 0.01);
    }
    return std::fabs(params[0](0, 0));
  };
  EXPECT_LT(run(0.9, true), run(0.0, false));
}

TEST(AdamUpdaterTest, ConvergesOnQuadratic) {
  std::vector<Matrix> params = {Matrix(3, 3, 4.0)};
  std::vector<Matrix> targets = {Matrix(3, 3, -1.0)};
  AdamUpdater adam;
  for (int step = 0; step < 2000; ++step) {
    adam.Step(&params, QuadraticGrad(params, targets), 0.05);
  }
  EXPECT_LT(DistanceTo(params, targets), 1e-2);
}

TEST(AdamUpdaterTest, FirstStepHasUnitScaleInvariance) {
  // Adam's first update magnitude is ~lr regardless of gradient scale.
  for (double scale : {1.0, 100.0}) {
    std::vector<Matrix> params = {Matrix(1, 1, scale)};
    std::vector<Matrix> targets = {Matrix(1, 1, 0.0)};
    AdamUpdater adam;
    adam.Step(&params, QuadraticGrad(params, targets), 0.1);
    EXPECT_NEAR(scale - params[0](0, 0), 0.1, 0.02) << "scale=" << scale;
  }
}

TEST(AdamUpdaterTest, HandlesZeroGradient) {
  std::vector<Matrix> params = {Matrix(1, 1, 1.0)};
  std::vector<Matrix> grads = {Matrix(1, 1, 0.0)};
  AdamUpdater adam;
  adam.Step(&params, grads, 0.1);
  EXPECT_NEAR(params[0](0, 0), 1.0, 1e-9);
}

TEST(UpdaterDeathTest, ShapeMismatchAborts) {
  std::vector<Matrix> params = {Matrix(2, 2)};
  std::vector<Matrix> grads = {Matrix(3, 3)};
  SgdUpdater sgd;
  EXPECT_DEATH(sgd.Step(&params, grads, 0.1), "BHPO_CHECK");
}

}  // namespace
}  // namespace bhpo
