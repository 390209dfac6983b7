#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/check.h"

namespace bhpo {

namespace {

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  BHPO_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

// Largest |v_i|, or NaN when any entry is NaN (std::max alone would drop
// it and report a NaN gradient as converged).
double InfNorm(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    if (std::isnan(x)) return x;
    best = std::max(best, std::fabs(x));
  }
  return best;
}

struct HistoryPair {
  std::vector<double> s;  // x_{k+1} - x_k
  std::vector<double> y;  // g_{k+1} - g_k
  double rho;             // 1 / (y . s)
};

// Two-loop recursion: r = H_k * g using the stored curvature pairs.
std::vector<double> ApplyInverseHessian(const std::deque<HistoryPair>& history,
                                        const std::vector<double>& grad) {
  std::vector<double> q = grad;
  std::vector<double> alphas(history.size());
  for (size_t i = history.size(); i-- > 0;) {
    const HistoryPair& h = history[i];
    alphas[i] = h.rho * Dot(h.s, q);
    for (size_t j = 0; j < q.size(); ++j) q[j] -= alphas[i] * h.y[j];
  }
  // Initial scaling gamma = (s.y)/(y.y) of the newest pair.
  if (!history.empty()) {
    const HistoryPair& newest = history.back();
    double yy = Dot(newest.y, newest.y);
    if (yy > 0.0) {
      double gamma = Dot(newest.s, newest.y) / yy;
      for (double& x : q) x *= gamma;
    }
  }
  for (size_t i = 0; i < history.size(); ++i) {
    const HistoryPair& h = history[i];
    double beta = h.rho * Dot(h.y, q);
    for (size_t j = 0; j < q.size(); ++j) {
      q[j] += (alphas[i] - beta) * h.s[j];
    }
  }
  return q;
}

}  // namespace

Result<LbfgsSummary> MinimizeLbfgs(const ObjectiveFn& objective,
                                   std::vector<double>* x,
                                   const LbfgsOptions& options) {
  if (!objective) {
    return Status::InvalidArgument("null objective");
  }
  if (x == nullptr || x->empty()) {
    return Status::InvalidArgument("empty parameter vector");
  }
  if (options.max_iterations < 1 || options.memory < 1) {
    return Status::InvalidArgument("max_iterations and memory must be >= 1");
  }

  size_t n = x->size();
  LbfgsSummary summary;

  std::vector<double> grad(n);
  double f = objective(*x, &grad);
  ++summary.function_evaluations;

  std::deque<HistoryPair> history;
  std::vector<double> new_x(n), new_grad(n);

  double gnorm = InfNorm(grad);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    summary.iterations = iter + 1;
    // A NaN or infinite gradient gives no usable direction: stop, not
    // converged, and report the non-finite norm.
    if (!std::isfinite(gnorm)) break;
    if (gnorm < options.gradient_tolerance) {
      summary.converged = true;
      break;
    }

    // Search direction d = -H * g.
    std::vector<double> direction = ApplyInverseHessian(history, grad);
    for (double& d : direction) d = -d;
    double dg = Dot(direction, grad);
    if (dg >= 0.0) {
      // Not a descent direction (numerical breakdown): restart from
      // steepest descent.
      history.clear();
      for (size_t i = 0; i < n; ++i) direction[i] = -grad[i];
      dg = -Dot(grad, grad);
    }

    // Backtracking Armijo line search.
    double step = (iter == 0 && history.empty())
                      ? std::min(1.0, 1.0 / std::max(1e-12, InfNorm(grad)))
                      : 1.0;
    double new_f = f;
    bool accepted = false;
    for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
      for (size_t i = 0; i < n; ++i) {
        new_x[i] = (*x)[i] + step * direction[i];
      }
      new_f = objective(new_x, &new_grad);
      ++summary.function_evaluations;
      if (std::isfinite(new_f) && new_f <= f + options.armijo_c1 * step * dg) {
        accepted = true;
        break;
      }
      step *= options.backtrack_factor;
    }
    if (!accepted) break;  // Line search failed; return best point so far.

    // Curvature pair.
    HistoryPair pair;
    pair.s.resize(n);
    pair.y.resize(n);
    for (size_t i = 0; i < n; ++i) {
      pair.s[i] = new_x[i] - (*x)[i];
      pair.y[i] = new_grad[i] - grad[i];
    }
    double ys = Dot(pair.y, pair.s);
    if (ys > 1e-12) {  // Skip pairs that would break positive definiteness.
      pair.rho = 1.0 / ys;
      history.push_back(std::move(pair));
      if (history.size() > static_cast<size_t>(options.memory)) {
        history.pop_front();
      }
    }

    double f_change = std::fabs(new_f - f);
    *x = new_x;
    grad = new_grad;
    f = new_f;
    gnorm = InfNorm(grad);
    // The line search only vets f, so the accepted point may carry a
    // non-finite gradient; a tiny f change there is not convergence either.
    if (!std::isfinite(gnorm)) break;
    if (f_change <= options.function_tolerance * std::max(std::fabs(f), 1.0)) {
      summary.converged = true;
      break;
    }
  }

  summary.final_objective = f;
  summary.final_gradient_norm = gnorm;
  return summary;
}

}  // namespace bhpo
