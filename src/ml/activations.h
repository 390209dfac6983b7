#ifndef BHPO_ML_ACTIVATIONS_H_
#define BHPO_ML_ACTIVATIONS_H_

#include <string>

#include "common/matrix.h"
#include "common/status.h"

namespace bhpo {

// Hidden-layer activation functions, matching scikit-learn MLP's
// `activation` hyperparameter values (Table III searches over
// logistic/tanh/relu).
enum class Activation { kIdentity, kLogistic, kTanh, kRelu };

Result<Activation> ActivationFromString(const std::string& name);
const char* ActivationToString(Activation activation);

// Applies the activation elementwise in place.
void ApplyActivation(Activation activation, Matrix* values);

// values *= act'(z) elementwise, given already-activated a = act(z) of the
// same shape — the backward pass's derivative product. Every supported
// activation's derivative is a function of its output:
// logistic: a(1-a); tanh: 1-a^2; relu: 1[a > 0]; identity: 1.
void MultiplyByActivationDerivative(Activation activation,
                                    const Matrix& activated, Matrix* values);

// Row-wise softmax in place (numerically stabilized by the row max).
void SoftmaxRows(Matrix* logits);

}  // namespace bhpo

#endif  // BHPO_ML_ACTIVATIONS_H_
