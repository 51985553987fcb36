// Deterministic random number generation for workload synthesis.
//
// Every source of randomness in manytiers flows through an explicitly
// seeded Rng so that datasets, NetFlow traces, and experiments are fully
// reproducible: the same seed always yields the same bytes.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace manytiers::util {

// Parameters of a lognormal distribution expressed in log space.
struct LognormalParams {
  double mu = 0.0;     // mean of ln(X)
  double sigma = 1.0;  // stddev of ln(X)
};

// Solve for lognormal parameters that produce a given arithmetic mean and
// coefficient of variation. For a lognormal, mean = exp(mu + sigma^2/2)
// and cv^2 = exp(sigma^2) - 1.
LognormalParams lognormal_from_mean_cv(double mean, double cv);

// Seeded pseudo-random generator with the distributions the workload
// generators need. Thin wrapper over std::mt19937_64; cheap to copy.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard distributions.
  double normal(double mean, double stddev);
  double lognormal(const LognormalParams& p);
  double exponential(double rate);
  bool bernoulli(double p_true);
  // Pareto with scale xm > 0 and shape alpha > 0 (support [xm, inf)).
  double pareto(double xm, double alpha);

  // Pick a uniformly random index into a container of the given size.
  std::size_t index(std::size_t size);

  // Derive an independent child generator; deterministic in (seed, salt).
  Rng fork(std::uint64_t salt);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// Zipf-distributed ranks in [1, n] with exponent s >= 0 (s = 0 is
// uniform), by inverse CDF over the harmonic weights k^-s. The weights
// and their total are computed once, in rank order; each draw takes one
// rng.uniform(0, total) and subtracts the weights in rank order until the
// remainder is <= 0. Building the table once per dataset instead of once
// per draw changes no operand, so the draws are bit-identical to the
// per-draw O(n) form.
class ZipfTable {
 public:
  ZipfTable(std::int64_t n, double s);

  std::int64_t n() const { return std::int64_t(weights_.size()); }
  double total() const { return total_; }  // sum of k^-s, k = 1..n
  std::int64_t draw(Rng& rng) const;

 private:
  std::vector<double> weights_;  // weights_[k - 1] = k^-s
  double total_ = 0.0;
};

// Draw `n` lognormal samples, then rescale so the *sample* sum equals
// `target_sum` and power-transform so the sample CV closely matches
// `target_cv`. Used to hit the paper's Table 1 moments on finite samples.
std::vector<double> sample_heavy_tailed(Rng& rng, std::size_t n,
                                        double target_sum, double target_cv);

}  // namespace manytiers::util
