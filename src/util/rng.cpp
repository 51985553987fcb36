#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/stats.hpp"

namespace manytiers::util {

LognormalParams lognormal_from_mean_cv(double mean, double cv) {
  if (mean <= 0.0) throw std::invalid_argument("lognormal mean must be > 0");
  if (cv <= 0.0) throw std::invalid_argument("lognormal cv must be > 0");
  const double sigma2 = std::log1p(cv * cv);
  LognormalParams p;
  p.sigma = std::sqrt(sigma2);
  p.mu = std::log(mean) - sigma2 / 2.0;
  return p;
}

double Rng::uniform(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("uniform: lo must be < hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo must be <= hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(const LognormalParams& p) {
  return std::lognormal_distribution<double>(p.mu, p.sigma)(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential rate must be > 0");
  return std::exponential_distribution<double>(rate)(engine_);
}

bool Rng::bernoulli(double p_true) {
  if (p_true < 0.0 || p_true > 1.0) {
    throw std::invalid_argument("bernoulli p must be in [0, 1]");
  }
  return std::bernoulli_distribution(p_true)(engine_);
}

double Rng::pareto(double xm, double alpha) {
  if (xm <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("pareto requires xm > 0 and alpha > 0");
  }
  // Inverse-CDF: X = xm / U^(1/alpha).
  const double u = std::uniform_real_distribution<double>(
      std::numeric_limits<double>::min(), 1.0)(engine_);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("index: empty range");
  return std::uniform_int_distribution<std::size_t>(0, size - 1)(engine_);
}

Rng Rng::fork(std::uint64_t salt) {
  // Mix the salt through splitmix64 so nearby salts decorrelate.
  std::uint64_t z = engine_() + salt + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return Rng(z ^ (z >> 31));
}

ZipfTable::ZipfTable(std::int64_t n, double s) {
  if (n < 1) throw std::invalid_argument("ZipfTable: n must be >= 1");
  if (!(s >= 0.0)) throw std::invalid_argument("ZipfTable: s must be >= 0");
  weights_.resize(std::size_t(n));
  for (std::int64_t k = 1; k <= n; ++k) {
    weights_[std::size_t(k - 1)] = std::pow(double(k), -s);
    total_ += weights_[std::size_t(k - 1)];
  }
}

std::int64_t ZipfTable::draw(Rng& rng) const {
  double u = rng.uniform(0.0, total_);
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    u -= weights_[k];
    if (u <= 0.0) return std::int64_t(k + 1);
  }
  return n();
}

std::vector<double> sample_heavy_tailed(Rng& rng, std::size_t n,
                                        double target_sum, double target_cv) {
  if (n == 0) throw std::invalid_argument("sample_heavy_tailed: n must be > 0");
  if (target_sum <= 0.0 || target_cv <= 0.0) {
    throw std::invalid_argument("sample_heavy_tailed: targets must be > 0");
  }
  const LognormalParams p = lognormal_from_mean_cv(1.0, target_cv);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.lognormal(p);
  if (n > 1) {
    // Power-transform in log space so the sample log-stddev matches the
    // lognormal's target log-stddev; for lognormal data this pins the CV.
    std::vector<double> lx(n);
    std::transform(xs.begin(), xs.end(), lx.begin(),
                   [](double v) { return std::log(v); });
    const double sd = stddev(lx);
    if (sd > 1e-12) {
      const double t = p.sigma / sd;
      for (auto& x : xs) x = std::pow(x, t);
    }
  }
  const double sum = std::accumulate(xs.begin(), xs.end(), 0.0);
  const double scale = target_sum / sum;
  for (auto& x : xs) x *= scale;
  return xs;
}

}  // namespace manytiers::util
