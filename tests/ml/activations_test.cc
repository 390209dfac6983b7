#include "ml/activations.h"

#include <cmath>

#include <gtest/gtest.h>

namespace bhpo {
namespace {

TEST(ActivationStringTest, RoundTrip) {
  for (const char* name : {"identity", "logistic", "tanh", "relu"}) {
    Activation a = ActivationFromString(name).value();
    EXPECT_STREQ(ActivationToString(a), name);
  }
  EXPECT_FALSE(ActivationFromString("swish").ok());
}

TEST(ApplyActivationTest, Logistic) {
  Matrix m = Matrix::FromRows({{0.0, 100.0, -100.0}});
  ApplyActivation(Activation::kLogistic, &m);
  EXPECT_NEAR(m(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m(0, 2), 0.0, 1e-12);
}

TEST(ApplyActivationTest, Tanh) {
  Matrix m = Matrix::FromRows({{0.0, 1.0}});
  ApplyActivation(Activation::kTanh, &m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_NEAR(m(0, 1), std::tanh(1.0), 1e-12);
}

TEST(ApplyActivationTest, Relu) {
  Matrix m = Matrix::FromRows({{-2.0, 0.0, 3.0}});
  ApplyActivation(Activation::kRelu, &m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
}

TEST(ApplyActivationTest, IdentityIsNoop) {
  Matrix m = Matrix::FromRows({{-2.0, 3.0}});
  ApplyActivation(Activation::kIdentity, &m);
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

// The derivative, computed from the activated output, must match finite
// differences of the activation itself.
class DerivativeTest : public ::testing::TestWithParam<Activation> {};

TEST_P(DerivativeTest, MatchesFiniteDifference) {
  Activation act = GetParam();
  const double kEps = 1e-6;
  for (double z : {-1.5, -0.3, 0.4, 2.0}) {
    Matrix plus = Matrix::FromRows({{z + kEps}});
    Matrix minus = Matrix::FromRows({{z - kEps}});
    ApplyActivation(act, &plus);
    ApplyActivation(act, &minus);
    double fd = (plus(0, 0) - minus(0, 0)) / (2 * kEps);

    Matrix out = Matrix::FromRows({{z}});
    ApplyActivation(act, &out);
    Matrix deriv(1, 1, 1.0);
    MultiplyByActivationDerivative(act, out, &deriv);
    EXPECT_NEAR(deriv(0, 0), fd, 1e-5)
        << ActivationToString(act) << " at z=" << z;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DerivativeTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kLogistic,
                                           Activation::kTanh,
                                           Activation::kRelu),
                         [](const auto& info) {
                           return ActivationToString(info.param);
                         });

TEST(SoftmaxTest, RowsSumToOne) {
  Matrix m = Matrix::FromRows({{1.0, 2.0, 3.0}, {-1.0, 0.0, 1.0}});
  SoftmaxRows(&m);
  for (size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(m(r, c), 0.0);
      total += m(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SoftmaxTest, MonotoneInLogits) {
  Matrix m = Matrix::FromRows({{1.0, 3.0, 2.0}});
  SoftmaxRows(&m);
  EXPECT_GT(m(0, 1), m(0, 2));
  EXPECT_GT(m(0, 2), m(0, 0));
}

TEST(SoftmaxTest, NumericallyStableForHugeLogits) {
  Matrix m = Matrix::FromRows({{1000.0, 1001.0}});
  SoftmaxRows(&m);
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_NEAR(m(0, 0) + m(0, 1), 1.0, 1e-12);
  EXPECT_GT(m(0, 1), m(0, 0));
}

TEST(SoftmaxTest, ShiftInvariance) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}});
  Matrix b = Matrix::FromRows({{101.0, 102.0}});
  SoftmaxRows(&a);
  SoftmaxRows(&b);
  EXPECT_NEAR(a(0, 0), b(0, 0), 1e-12);
}

}  // namespace
}  // namespace bhpo
