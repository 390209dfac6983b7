#ifndef BHPO_ML_LBFGS_H_
#define BHPO_ML_LBFGS_H_

#include <functional>
#include <vector>

#include "common/status.h"

namespace bhpo {

// Generic limited-memory BFGS minimizer (two-loop recursion with a
// backtracking Armijo line search). Used as the MLP's `lbfgs` solver, but
// exposed as a standalone facility; any smooth unconstrained objective
// works.
//
// The objective must return f(x) and write df/dx into *grad (resized by the
// caller to x.size()).
using ObjectiveFn =
    std::function<double(const std::vector<double>& x,
                         std::vector<double>* grad)>;

struct LbfgsOptions {
  int max_iterations = 200;
  // History pairs kept for the inverse-Hessian approximation.
  int memory = 10;
  // Convergence: stop when the gradient inf-norm drops below this.
  double gradient_tolerance = 1e-5;
  // Convergence: stop when |f_new - f_old| <= function_tolerance * max(|f|,1).
  double function_tolerance = 1e-9;
  int max_line_search_steps = 30;
  double armijo_c1 = 1e-4;
  double backtrack_factor = 0.5;
};

struct LbfgsSummary {
  int iterations = 0;
  int function_evaluations = 0;
  double final_objective = 0.0;
  double final_gradient_norm = 0.0;
  bool converged = false;  // gradient or function tolerance reached
};

// Minimizes f starting from *x (updated in place to the best point found).
// Returns an error only for invalid arguments; a line-search failure ends
// the run gracefully with converged=false, and so does a gradient with a
// NaN or infinite entry (final_gradient_norm is then non-finite).
Result<LbfgsSummary> MinimizeLbfgs(const ObjectiveFn& objective,
                                   std::vector<double>* x,
                                   const LbfgsOptions& options = {});

}  // namespace bhpo

#endif  // BHPO_ML_LBFGS_H_
