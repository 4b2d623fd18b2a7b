/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component (trace generators, placement, straggler
 * timing) takes an explicit Rng so experiments are reproducible from a
 * single seed and independent components can be given decorrelated
 * streams via split().
 */

#ifndef CHAMELEON_UTIL_RNG_HH_
#define CHAMELEON_UTIL_RNG_HH_

#include <cstdint>

namespace chameleon {

/**
 * xoshiro256** generator seeded through splitmix64.
 *
 * Chosen over std::mt19937_64 for speed and a tiny state that makes
 * split() cheap; statistical quality is more than sufficient for
 * workload synthesis.
 */
class Rng
{
  public:
    /** Seeds the four state words by iterating splitmix64 over seed. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit output. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) for n >= 1. */
    uint64_t below(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t range(int64_t lo, int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponential variate with the given mean (mean > 0). */
    double exponential(double mean);

    /**
     * Derives an independent generator.
     *
     * The child is seeded from this generator's stream, so distinct
     * calls yield decorrelated children while remaining reproducible.
     */
    Rng split();

  private:
    uint64_t s_[4];
};

/**
 * Rng::below() against one bound, with the per-call work hoisted.
 *
 * below(n) computes its rejection threshold (-n % n) and the
 * remainder r % n with two 64-bit divisions per draw. A FixedBound
 * computes the threshold once, and replaces the remainder by
 * Lemire's fastmod (Lemire, Kaser & Kurz, "Faster Remainder by
 * Direct Computation", 2019): with M = ceil(2^128 / n),
 * r % n == ((M * r) mod 2^128) * n >> 128 for every 64-bit r.
 * draw(rng) makes the same next() calls as rng.below(bound) and
 * returns the same value, for every bound in [1, 2^64).
 */
class FixedBound
{
  public:
    explicit FixedBound(uint64_t bound);

    /** Uniform integer in [0, bound); equals rng.below(bound). */
    uint64_t draw(Rng &rng) const;

  private:
    uint64_t bound_;
    uint64_t threshold_;
    unsigned __int128 reciprocal_;
};

} // namespace chameleon

#endif // CHAMELEON_UTIL_RNG_HH_
