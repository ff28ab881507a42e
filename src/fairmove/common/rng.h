#ifndef FAIRMOVE_COMMON_RNG_H_
#define FAIRMOVE_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <numbers>

#include "fairmove/common/macros.h"

namespace fairmove {

/// One SplitMix64 step: advances `x` by the golden-ratio gamma and returns
/// the finalised (avalanched) output word. The primitive behind both Rng
/// seeding and seed-stream derivation; constexpr so derived streams can be
/// pinned at compile time in tests.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives an independent seed for stream `index` of the namespace tagged
/// `ns` under `base`. Chained SplitMix64 finalisers give full avalanche on
/// each input, so adjacent indices (or namespaces, or bases) land on
/// uncorrelated streams — unlike the `base + index` shift idiom, where the
/// xoshiro seeding sequences of adjacent repeats start one gamma apart.
constexpr uint64_t DeriveSeed(uint64_t base, uint64_t ns, uint64_t index) {
  uint64_t h = SplitMix64(base);
  h = SplitMix64(h ^ ns);
  return SplitMix64(h ^ index);
}

/// Deterministic, seedable pseudo-random generator (xoshiro256++ with a
/// SplitMix64 seeding sequence). Every stochastic component in the library
/// takes an explicit Rng so simulations are reproducible bit-for-bit;
/// std::random device/engine distributions are avoided because their output
/// is not specified identically across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the generator. Distinct seeds give independent-looking streams.
  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the single word into 4 state words.
    uint64_t x = seed;
    for (auto& word : state_) {
      word = SplitMix64(x);
      x += 0x9E3779B97F4A7C15ULL;
    }
    has_gaussian_ = false;
  }

  /// Uniform 64-bit word.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  uint64_t NextBounded(uint64_t n) {
    FM_CHECK(n > 0);
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < n) {
      uint64_t threshold = -n % n;
      while (low < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller (cached second variate).
  double Gaussian() {
    if (has_gaussian_) {
      has_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = NextDouble();
    while (u1 <= 1e-300) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_gaussian_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Poisson-distributed count with the given mean. Knuth's method for small
  /// means, normal approximation (clamped at 0) above 30 for O(1) time.
  int Poisson(double mean) {
    FM_CHECK(mean >= 0.0);
    if (mean == 0.0) return 0;
    if (mean > 30.0) {
      const double v = Gaussian(mean, std::sqrt(mean));
      return v < 0.0 ? 0 : static_cast<int>(std::lround(v));
    }
    const double limit = std::exp(-mean);
    double prod = NextDouble();
    int n = 0;
    while (prod > limit) {
      prod *= NextDouble();
      ++n;
    }
    return n;
  }

  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate) {
    FM_CHECK(rate > 0.0);
    double u = NextDouble();
    while (u <= 1e-300) u = NextDouble();
    return -std::log(u) / rate;
  }

  /// Log-normal: exp(N(mu, sigma)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Zero-total weight falls back to uniform. Non-finite weights are a
  /// programmer error and abort: with a NaN total the zero-total guard is
  /// false and the scan would silently return the last index, turning a
  /// diverged policy into a deterministic (always-last-action) one.
  template <typename Container>
  size_t WeightedIndex(const Container& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    FM_CHECK(std::isfinite(total))
        << "WeightedIndex: non-finite total weight " << total;
    if (total <= 0.0) return NextBounded(weights.size());
    double r = NextDouble() * total;
    size_t i = 0;
    for (double w : weights) {
      r -= w;
      if (r <= 0.0) return i;
      ++i;
    }
    return weights.size() - 1;
  }

  /// Full generator state — the four xoshiro words plus the Box-Muller
  /// cache. Save/RestoreState round-trips the stream bit-identically
  /// (including a pending cached Gaussian variate), which is what makes
  /// checkpoint/resume of stochastic policies exact.
  struct State {
    uint64_t words[4] = {0, 0, 0, 0};
    bool has_gaussian = false;
    double cached_gaussian = 0.0;
  };

  State SaveState() const {
    State st;
    for (int i = 0; i < 4; ++i) st.words[i] = state_[i];
    st.has_gaussian = has_gaussian_;
    st.cached_gaussian = cached_gaussian_;
    return st;
  }

  void RestoreState(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.words[i];
    has_gaussian_ = st.has_gaussian;
    cached_gaussian_ = st.cached_gaussian;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_RNG_H_
