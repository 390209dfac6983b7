#include "ml/activations.h"

#include <algorithm>
#include <cmath>

namespace bhpo {

Result<Activation> ActivationFromString(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "logistic") return Activation::kLogistic;
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  return Status::InvalidArgument("unknown activation '" + name + "'");
}

const char* ActivationToString(Activation activation) {
  switch (activation) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kLogistic:
      return "logistic";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
  }
  return "?";
}

void ApplyActivation(Activation activation, Matrix* values) {
  BHPO_CHECK(values != nullptr);
  switch (activation) {
    case Activation::kIdentity:
      return;
    case Activation::kLogistic:
      for (double& x : values->data()) x = 1.0 / (1.0 + std::exp(-x));
      return;
    case Activation::kTanh:
      for (double& x : values->data()) x = std::tanh(x);
      return;
    case Activation::kRelu:
      for (double& x : values->data()) x = std::max(0.0, x);
      return;
  }
}

void MultiplyByActivationDerivative(Activation activation,
                                    const Matrix& activated, Matrix* values) {
  BHPO_CHECK(values != nullptr);
  BHPO_CHECK(values->SameShape(activated));
  const std::vector<double>& a = activated.data();
  std::vector<double>& v = values->data();
  switch (activation) {
    case Activation::kIdentity:
      // v * 1.0 == v for every non-signaling value.
      return;
    case Activation::kLogistic:
      for (size_t i = 0; i < a.size(); ++i) v[i] *= a[i] * (1.0 - a[i]);
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < a.size(); ++i) v[i] *= 1.0 - a[i] * a[i];
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < a.size(); ++i) v[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      return;
  }
}

void SoftmaxRows(Matrix* logits) {
  BHPO_CHECK(logits != nullptr);
  for (size_t r = 0; r < logits->rows(); ++r) {
    double* p = logits->Row(r);
    double row_max = p[0];
    for (size_t c = 1; c < logits->cols(); ++c) {
      row_max = std::max(row_max, p[c]);
    }
    double total = 0.0;
    for (size_t c = 0; c < logits->cols(); ++c) {
      p[c] = std::exp(p[c] - row_max);
      total += p[c];
    }
    for (size_t c = 0; c < logits->cols(); ++c) p[c] /= total;
  }
}

}  // namespace bhpo
