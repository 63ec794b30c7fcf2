/**
 * @file
 * Deterministic pseudo-random number generation for the synthetic
 * workload generator.
 *
 * Trace generation must be bit-reproducible across platforms so that
 * experiments are repeatable; we therefore avoid std::default_random
 * (unspecified algorithms) and implement xoshiro256** together with
 * the handful of distributions the generator needs.
 */

#ifndef DIRSIM_COMMON_RANDOM_HH
#define DIRSIM_COMMON_RANDOM_HH

#include <array>
#include <cstdint>
#include <vector>

namespace dirsim
{

/**
 * xoshiro256** by Blackman & Vigna: fast, high-quality, and with a
 * stable cross-platform definition.
 */
class Rng
{
  public:
    /**
     * Seed via SplitMix64 so that nearby seeds give unrelated streams.
     *
     * @param seed any 64-bit value, including 0
     */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli draw with success probability @p p (clamped to [0,1]). */
    bool chance(double p);

    /**
     * Geometric draw: the number of failures before the first success
     * of a Bernoulli(p) process; mean (1-p)/p. Requires p in (0, 1].
     */
    std::uint64_t geometric(double p);

    /** Split off an independent child stream (for per-process RNGs). */
    Rng split();

  private:
    std::array<std::uint64_t, 4> state;
};

/**
 * Precomputed Zipf sampler over a fixed range (rank r has weight
 * 1/(r+1)^s), in expected O(1) per draw: a guide table cuts [0, 1)
 * into 2^b >= n equal buckets, so a draw searches the CDF only within
 * its bucket, and returns the rank a whole-CDF search would.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of ranks (must be in [1, 2^32))
     * @param s skew exponent (s = 0 degenerates to uniform)
     */
    ZipfSampler(std::uint64_t n, double s);

    /** Draw a rank in [0, n). */
    std::uint64_t operator()(Rng &rng) const { return rank(rng.uniform()); }

    /**
     * The rank a draw of @p u in [0, 1) maps to: the first rank whose
     * CDF is at least @p u.
     */
    std::uint64_t rank(double u) const;

  private:
    std::vector<double> cdf;
    /** guide[k]: the first rank whose CDF reaches k·2^-b, where 2^b
     *  is the least power of two >= n. */
    std::vector<std::uint32_t> guide;
};

} // namespace dirsim

#endif // DIRSIM_COMMON_RANDOM_HH
