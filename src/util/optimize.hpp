// Numerical optimization primitives.
//
// The pricing engine has closed forms for every profit-maximizing price it
// uses; these routines exist to (a) verify those closed forms in tests,
// (b) solve the logit equal-markup fixed point, and (c) implement the
// paper's gradient-descent pricing heuristic for the logit model (§3.2.2).
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace manytiers::util {

struct ScalarOptimum {
  double x = 0.0;
  double value = 0.0;
  int iterations = 0;
};

// Golden-section search for the maximum of a unimodal function on [lo, hi].
ScalarOptimum maximize_scalar(const std::function<double(double)>& f,
                              double lo, double hi, double tol = 1e-10,
                              int max_iter = 500);

// Bisection root-finding on [lo, hi]; f(lo) and f(hi) must bracket a root.
double find_root(const std::function<double(double)>& f, double lo, double hi,
                 double tol = 1e-12, int max_iter = 200);
// The same bisection for a caller that already evaluated f at both
// endpoints (f_lo = f(lo), f_hi = f(hi)): f runs only at midpoints, and
// the result is identical to find_root(f, lo, hi, tol, max_iter).
double find_root_bracketed(const std::function<double(double)>& f, double lo,
                           double f_lo, double hi, double f_hi,
                           double tol = 1e-12, int max_iter = 200);

struct FixedPointResult {
  double x = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Damped fixed-point iteration x <- (1-damping)*x + damping*f(x).
FixedPointResult fixed_point(const std::function<double(double)>& f, double x0,
                             double tol = 1e-12, int max_iter = 10000,
                             double damping = 0.5);

struct GradientAscentOptions {
  double initial_step = 0.1;
  double tol = 1e-9;          // stop when the step's improvement is below tol
  int max_iter = 20000;
  double grad_epsilon = 1e-6; // central-difference step for numeric gradients
  std::vector<double> lower_bounds;  // optional per-coordinate floor
};

struct GradientAscentResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Projected gradient ascent with backtracking line search and numeric
// central-difference gradients. This is the "heuristic based on gradient
// descent" of the paper, ascending profit instead of descending loss.
GradientAscentResult gradient_ascent(
    const std::function<double(std::span<const double>)>& f,
    std::vector<double> x0, const GradientAscentOptions& opts = {});

}  // namespace manytiers::util
