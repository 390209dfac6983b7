#ifndef BHPO_COMMON_RNG_H_
#define BHPO_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace bhpo {

// Seeded pseudo-random number generator used everywhere randomness is
// needed. All library components take an Rng (or a seed) explicitly so that
// experiments are reproducible run-to-run; nothing in the library touches a
// global RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0) : engine_(seed) {}

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi) {
    BHPO_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  // Uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n) {
    BHPO_CHECK_GT(n, 0u);
    return std::uniform_int_distribution<size_t>(0, n - 1)(engine_);
  }

  // Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Standard normal scaled to (mean, stddev).
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Samples an index from an unnormalized non-negative weight vector.
  // Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = std::uniform_int_distribution<size_t>(0, i)(engine_);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  // k distinct indices sampled uniformly from [0, n) (k <= n), in random
  // order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  std::mt19937_64& engine() { return engine_; }

  // A deterministic 64-bit fingerprint of the current generator state: the
  // next value the engine WOULD produce, computed on a copy so the stream
  // itself does not advance. Two Rngs fingerprint equal iff they will
  // produce the same stream, which is what lets the evaluation cache use a
  // fingerprint as a stable subset identity (see hpo/eval_cache.h).
  uint64_t StateFingerprint() const {
    std::mt19937_64 copy = engine_;
    return copy();
  }

 private:
  std::mt19937_64 engine_;
};

// Derives an independent, deterministic seed for stream `stream` from a base
// seed (SplitMix64 finalizer). Used to give each cross-validation fold its
// own model seed without threading an Rng through parallel fold evaluation:
// the result depends only on (seed, stream), never on execution order.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace bhpo

#endif  // BHPO_COMMON_RNG_H_
