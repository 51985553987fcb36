#include "util/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace manytiers::util {

ScalarOptimum maximize_scalar(const std::function<double(double)>& f,
                              double lo, double hi, double tol, int max_iter) {
  if (!(lo < hi)) throw std::invalid_argument("maximize_scalar: lo must be < hi");
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  int it = 0;
  while (b - a > tol && it < max_iter) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
    ++it;
  }
  const double x = (a + b) / 2.0;
  return {x, f(x), it};
}

double find_root(const std::function<double(double)>& f, double lo, double hi,
                 double tol, int max_iter) {
  const double flo = f(lo);
  return find_root_bracketed(f, lo, flo, hi, f(hi), tol, max_iter);
}

double find_root_bracketed(const std::function<double(double)>& f, double lo,
                           double flo, double hi, double fhi, double tol,
                           int max_iter) {
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0)) {
    throw std::invalid_argument("find_root: endpoints do not bracket a root");
  }
  for (int it = 0; it < max_iter && hi - lo > tol; ++it) {
    const double mid = (lo + hi) / 2.0;
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

FixedPointResult fixed_point(const std::function<double(double)>& f, double x0,
                             double tol, int max_iter, double damping) {
  if (damping <= 0.0 || damping > 1.0) {
    throw std::invalid_argument("fixed_point: damping must be in (0, 1]");
  }
  double x = x0;
  for (int it = 1; it <= max_iter; ++it) {
    const double next = (1.0 - damping) * x + damping * f(x);
    if (std::abs(next - x) <= tol * std::max(1.0, std::abs(next))) {
      return {next, it, true};
    }
    x = next;
  }
  return {x, max_iter, false};
}

namespace {

std::vector<double> numeric_gradient(
    const std::function<double(std::span<const double>)>& f,
    std::vector<double>& x, double eps) {
  std::vector<double> g(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + eps;
    const double fp = f(x);
    x[i] = orig - eps;
    const double fm = f(x);
    x[i] = orig;
    g[i] = (fp - fm) / (2.0 * eps);
  }
  return g;
}

void project(std::vector<double>& x, const std::vector<double>& lb) {
  if (lb.empty()) return;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::max(x[i], lb[i]);
}

}  // namespace

GradientAscentResult gradient_ascent(
    const std::function<double(std::span<const double>)>& f,
    std::vector<double> x0, const GradientAscentOptions& opts) {
  if (x0.empty()) throw std::invalid_argument("gradient_ascent: empty start");
  if (!opts.lower_bounds.empty() && opts.lower_bounds.size() != x0.size()) {
    throw std::invalid_argument("gradient_ascent: bound size mismatch");
  }
  project(x0, opts.lower_bounds);
  GradientAscentResult res;
  res.x = std::move(x0);
  res.value = f(res.x);
  // Steps are taken along the *normalized* gradient so the step size is
  // in coordinate units regardless of the objective's scale.
  double step = opts.initial_step;
  int flat_iterations = 0;
  for (int it = 1; it <= opts.max_iter; ++it) {
    res.iterations = it;
    const auto g = numeric_gradient(f, res.x, opts.grad_epsilon);
    double gnorm = 0.0;
    for (double gi : g) gnorm += gi * gi;
    gnorm = std::sqrt(gnorm);
    if (gnorm == 0.0) {
      res.converged = true;
      return res;
    }
    // Backtracking line search, restarting from a healthy step so one
    // cautious iteration does not cripple the rest of the ascent.
    double trial = std::max(step, opts.initial_step);
    bool improved = false;
    for (int bt = 0; bt < 60; ++bt) {
      std::vector<double> cand = res.x;
      for (std::size_t i = 0; i < cand.size(); ++i) {
        cand[i] += trial * g[i] / gnorm;
      }
      project(cand, opts.lower_bounds);
      const double fv = f(cand);
      if (fv > res.value) {
        const double gain = fv - res.value;
        res.x = std::move(cand);
        res.value = fv;
        step = trial * 2.0;
        improved = true;
        // Converge once several consecutive steps improve negligibly.
        if (gain < opts.tol * std::max(1.0, std::abs(res.value))) {
          if (++flat_iterations >= 3) {
            res.converged = true;
            return res;
          }
        } else {
          flat_iterations = 0;
        }
        break;
      }
      trial *= 0.5;
    }
    if (!improved) {
      res.converged = true;  // no ascent direction at this resolution
      return res;
    }
  }
  return res;
}

}  // namespace manytiers::util
