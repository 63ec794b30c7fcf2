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
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

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

    // The per-record draws are defined here so that they inline into
    // the generator's loops.

    /** Next raw 64-bit draw. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t below(std::uint64_t bound)
    {
        panicIfNot(bound != 0, "Rng::below(0)");
        // Lemire-style rejection-free enough for simulation purposes:
        // 128-bit multiply keeps the bias below 2^-64.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi)
    {
        panicIfNot(lo <= hi, "Rng::between: lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with success probability @p p (clamped to [0,1]). */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

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
