#include "ml/lbfgs.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

// f(x) = sum (x_i - i)^2.
double ShiftedQuadratic(const std::vector<double>& x,
                        std::vector<double>* grad) {
  grad->resize(x.size());
  double f = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double d = x[i] - static_cast<double>(i);
    f += d * d;
    (*grad)[i] = 2.0 * d;
  }
  return f;
}

double Rosenbrock(const std::vector<double>& x, std::vector<double>* grad) {
  double a = x[0], b = x[1];
  grad->resize(2);
  double f = (1 - a) * (1 - a) + 100.0 * (b - a * a) * (b - a * a);
  (*grad)[0] = -2.0 * (1 - a) - 400.0 * a * (b - a * a);
  (*grad)[1] = 200.0 * (b - a * a);
  return f;
}

TEST(LbfgsTest, SolvesQuadraticExactly) {
  std::vector<double> x(5, 10.0);
  LbfgsSummary s = MinimizeLbfgs(ShiftedQuadratic, &x).value();
  EXPECT_TRUE(s.converged);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], static_cast<double>(i), 1e-4);
  }
  EXPECT_NEAR(s.final_objective, 0.0, 1e-7);
}

TEST(LbfgsTest, SolvesRosenbrock) {
  std::vector<double> x = {-1.2, 1.0};
  LbfgsOptions opts;
  opts.max_iterations = 500;
  LbfgsSummary s = MinimizeLbfgs(Rosenbrock, &x, opts).value();
  EXPECT_NEAR(x[0], 1.0, 1e-3);
  EXPECT_NEAR(x[1], 1.0, 1e-3);
  EXPECT_LT(s.final_objective, 1e-5);
}

TEST(LbfgsTest, StartingAtOptimumConvergesImmediately) {
  std::vector<double> x = {0.0, 1.0, 2.0};
  LbfgsSummary s = MinimizeLbfgs(ShiftedQuadratic, &x).value();
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.iterations, 1);
}

TEST(LbfgsTest, ReportsFunctionEvaluations) {
  std::vector<double> x(3, 5.0);
  LbfgsSummary s = MinimizeLbfgs(ShiftedQuadratic, &x).value();
  EXPECT_GT(s.function_evaluations, 1);
}

TEST(LbfgsTest, RespectsIterationCap) {
  std::vector<double> x = {-1.2, 1.0};
  LbfgsOptions opts;
  opts.max_iterations = 3;
  LbfgsSummary s = MinimizeLbfgs(Rosenbrock, &x, opts).value();
  EXPECT_LE(s.iterations, 3);
}

TEST(LbfgsTest, SmallMemoryStillConverges) {
  std::vector<double> x(8, 3.0);
  LbfgsOptions opts;
  opts.memory = 2;
  LbfgsSummary s = MinimizeLbfgs(ShiftedQuadratic, &x, opts).value();
  EXPECT_TRUE(s.converged);
}

TEST(LbfgsTest, RejectsInvalidArguments) {
  std::vector<double> x = {1.0};
  EXPECT_FALSE(MinimizeLbfgs(nullptr, &x).ok());
  EXPECT_FALSE(MinimizeLbfgs(ShiftedQuadratic, nullptr).ok());
  std::vector<double> empty;
  EXPECT_FALSE(MinimizeLbfgs(ShiftedQuadratic, &empty).ok());
  LbfgsOptions opts;
  opts.max_iterations = 0;
  EXPECT_FALSE(MinimizeLbfgs(ShiftedQuadratic, &x, opts).ok());
}

// A finite objective with a NaN gradient has no descent direction; the run
// must stop unconverged and say so through the norm, not report the NaN
// gradient as a zero one.
TEST(LbfgsTest, NanGradientIsNotConvergence) {
  auto all_nan = [](const std::vector<double>& x, std::vector<double>* grad) {
    grad->assign(x.size(), std::nan(""));
    return 13.0;
  };
  std::vector<double> x(3, 1.0);
  LbfgsSummary s = MinimizeLbfgs(all_nan, &x).value();
  EXPECT_FALSE(s.converged);
  EXPECT_FALSE(std::isfinite(s.final_gradient_norm));
  EXPECT_EQ(s.final_objective, 13.0);
  EXPECT_EQ(x, std::vector<double>(3, 1.0));
}

// One NaN entry among finite ones, appearing only away from the start:
// the run takes real steps first, then stops unconverged.
TEST(LbfgsTest, GradientTurningNanMidRunStopsUnconverged) {
  auto nan_below_half = [](const std::vector<double>& x,
                           std::vector<double>* grad) {
    double f = ShiftedQuadratic(x, grad);
    if (x[0] < 0.5) (*grad)[1] = std::nan("");
    return f;
  };
  std::vector<double> x(4, 10.0);
  LbfgsSummary s = MinimizeLbfgs(nan_below_half, &x).value();
  EXPECT_FALSE(s.converged);
  EXPECT_TRUE(std::isnan(s.final_gradient_norm));
  EXPECT_GT(s.iterations, 1);
  EXPECT_LT(x[0], 0.5);
}

// An infinite gradient entry is no more usable than a NaN one.
TEST(LbfgsTest, InfiniteGradientIsNotConvergence) {
  auto infinite = [](const std::vector<double>& x, std::vector<double>* grad) {
    grad->assign(x.size(), 0.0);
    (*grad)[0] = -std::numeric_limits<double>::infinity();
    return 1.0;
  };
  std::vector<double> x(2, 0.0);
  LbfgsSummary s = MinimizeLbfgs(infinite, &x).value();
  EXPECT_FALSE(s.converged);
  EXPECT_TRUE(std::isinf(s.final_gradient_norm));
}

// The line search vets only f, so it can accept a point whose gradient is
// NaN. When f barely moved there (here by 2e-12, within the default
// function_tolerance of 1e-9 relative), the run must still end unconverged
// rather than through the function-tolerance test.
TEST(LbfgsTest, TinyStepOntoNanGradientIsNotConvergence) {
  auto nan_past_zero = [](const std::vector<double>& x,
                          std::vector<double>* grad) {
    grad->assign(x.size(), 1e-4);
    if (x[0] >= 0.0) return 5.0;
    (*grad)[0] = std::nan("");
    return 5.0 - 2e-12;
  };
  std::vector<double> x(1, 0.0);
  LbfgsSummary s = MinimizeLbfgs(nan_past_zero, &x).value();
  EXPECT_FALSE(s.converged);
  EXPECT_TRUE(std::isnan(s.final_gradient_norm));
  EXPECT_EQ(s.iterations, 1);
  EXPECT_LT(x[0], 0.0);
  EXPECT_EQ(s.final_objective, 5.0 - 2e-12);
}

TEST(LbfgsTest, NonConvexMultiModalFindsSomeLocalMinimum) {
  // f(x) = x^4 - 3x^2 + x has two local minima; lbfgs must land in one
  // (gradient ~ 0), not diverge.
  auto f = [](const std::vector<double>& x, std::vector<double>* grad) {
    grad->resize(1);
    double v = x[0];
    (*grad)[0] = 4 * v * v * v - 6 * v + 1;
    return v * v * v * v - 3 * v * v + v;
  };
  std::vector<double> x = {2.0};
  LbfgsSummary s = MinimizeLbfgs(f, &x).value();
  EXPECT_LT(s.final_gradient_norm, 1e-3);
}

}  // namespace
}  // namespace bhpo
