#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/stats.hpp"

namespace manytiers::util {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 4.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 4.5);
  }
}

TEST(Rng, UniformRejectsEmptyRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= x == 0;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, ExponentialHasCorrectMean) {
  Rng rng(9);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.exponential(0.5);
  EXPECT_NEAR(mean(xs), 2.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(9);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(double(heads) / 10000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliValidatesP) {
  Rng rng(13);
  EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(3.0, 2.0), 3.0);
  }
}

TEST(Rng, ParetoValidatesParameters) {
  Rng rng(17);
  EXPECT_THROW(rng.pareto(0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, ZipfStaysInRangeAndFavorsLowRanks) {
  Rng rng(19);
  const ZipfTable zipf(10, 1.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto k = zipf.draw(rng);
    ASSERT_GE(k, 1);
    ASSERT_LE(k, 10);
    ++counts[std::size_t(k - 1)];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[4], counts[9]);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(23);
  const ZipfTable zipf(5, 0.0);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 25000; ++i) ++counts[std::size_t(zipf.draw(rng) - 1)];
  for (const int c : counts) EXPECT_NEAR(double(c), 5000.0, 300.0);
}

TEST(Rng, ZipfValidatesArguments) {
  EXPECT_THROW(ZipfTable(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfTable(5, -1.0), std::invalid_argument);
  EXPECT_THROW(ZipfTable(5, std::nan("")), std::invalid_argument);
}

// The per-draw inverse CDF ZipfTable replaced: sums the weights, draws
// one uniform, then walks the weights again, all on every call.
double zipf_total(std::int64_t n, double s) {
  double total = 0.0;
  for (std::int64_t k = 1; k <= n; ++k) total += std::pow(double(k), -s);
  return total;
}

std::int64_t zipf_per_draw(std::mt19937_64& engine, std::int64_t n, double s) {
  const double total = zipf_total(n, s);
  double u = std::uniform_real_distribution<double>(0.0, total)(engine);
  for (std::int64_t k = 1; k <= n; ++k) {
    u -= std::pow(double(k), -s);
    if (u <= 0.0) return k;
  }
  return n;
}

TEST(Rng, ZipfTableMatchesPerDrawInverseCdfDrawForDraw) {
  const std::pair<std::int64_t, double> cases[] = {
      {1, 0.8}, {1, 0.0}, {2, 1.0}, {5, 0.0}, {10, 1.0},
      {113, 0.8}, {1000, 1.2}, {64, 3.5}};
  for (const auto& [n, s] : cases) {
    Rng rng(97);
    std::mt19937_64 oracle(97);
    const ZipfTable zipf(n, s);
    EXPECT_EQ(zipf.n(), n);
    // Exact: a draw moves only when u lands within an ulp of a boundary,
    // so a reordered sum would slip past the draw comparison below.
    EXPECT_EQ(zipf.total(), zipf_total(n, s)) << "n=" << n << " s=" << s;
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(zipf.draw(rng), zipf_per_draw(oracle, n, s))
          << "n=" << n << " s=" << s << " draw " << i;
    }
    // Both consumed the engine identically.
    EXPECT_EQ(rng.engine()(), oracle());
  }
}

TEST(Rng, IndexCoversAllSlots) {
  Rng rng(29);
  std::vector<bool> seen(7, false);
  for (int i = 0; i < 1000; ++i) seen[rng.index(7)] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(29);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(31);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (childA.uniform(0.0, 1.0) == childB.uniform(0.0, 1.0)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(LognormalParams, RoundTripsMeanAndCv) {
  const auto p = lognormal_from_mean_cv(5.0, 1.5);
  // mean = exp(mu + sigma^2/2), cv^2 = exp(sigma^2) - 1.
  EXPECT_NEAR(std::exp(p.mu + p.sigma * p.sigma / 2.0), 5.0, 1e-12);
  EXPECT_NEAR(std::sqrt(std::exp(p.sigma * p.sigma) - 1.0), 1.5, 1e-12);
}

TEST(LognormalParams, ValidatesInputs) {
  EXPECT_THROW(lognormal_from_mean_cv(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(lognormal_from_mean_cv(1.0, 0.0), std::invalid_argument);
}

TEST(SampleHeavyTailed, HitsSumExactlyAndCvClosely) {
  Rng rng(37);
  const auto xs = sample_heavy_tailed(rng, 500, 1000.0, 2.0);
  EXPECT_EQ(xs.size(), 500u);
  EXPECT_NEAR(std::accumulate(xs.begin(), xs.end(), 0.0), 1000.0, 1e-6);
  EXPECT_NEAR(coefficient_of_variation(xs), 2.0, 0.5);
  for (const double x : xs) EXPECT_GT(x, 0.0);
}

TEST(SampleHeavyTailed, ValidatesArguments) {
  Rng rng(37);
  EXPECT_THROW(sample_heavy_tailed(rng, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_heavy_tailed(rng, 10, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_heavy_tailed(rng, 10, 1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::util
