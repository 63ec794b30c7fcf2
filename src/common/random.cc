#include "common/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace dirsim
{

namespace
{

/** SplitMix64 step, used for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : state)
        word = splitMix64(x);
    // xoshiro requires a non-zero state; splitMix64 of anything gives
    // this with overwhelming probability, but guarantee it anyway.
    if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0)
        state[0] = 1;
}

std::uint64_t
Rng::geometric(double p)
{
    panicIfNot(p > 0.0 && p <= 1.0, "Rng::geometric: p out of (0,1]");
    if (p == 1.0)
        return 0;
    const double u = 1.0 - uniform(); // in (0, 1]
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log(1.0 - p)));
}

Rng
Rng::split()
{
    return Rng(next());
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
{
    panicIfNot(n >= 1, "ZipfSampler: empty range");
    panicIfNot(n <= std::numeric_limits<std::uint32_t>::max(),
               "ZipfSampler: ", n, " ranks exceed the guide table's u32");
    cdf.resize(n);
    double running = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        running += 1.0 / std::pow(static_cast<double>(r + 1), s);
        cdf[r] = running;
    }
    for (auto &c : cdf)
        c /= running;

    // One merge pass: guide[k] = lower_bound(cdf, k·2^-b), the CDF
    // being non-decreasing. k·2^-b is exact for k <= 2^b <= 2^32.
    const std::uint64_t buckets = std::bit_ceil(n);
    guide.resize(buckets + 1);
    std::uint32_t r = 0;
    for (std::uint64_t k = 0; k <= buckets; ++k) {
        const double boundary =
            static_cast<double>(k) / static_cast<double>(buckets);
        while (r < n && cdf[r] < boundary)
            ++r;
        guide[k] = r;
    }
}

std::uint64_t
ZipfSampler::rank(double u) const
{
    // u·2^b is exact, so u lies in bucket k = floor(u·2^b) and its
    // rank in [guide[k], guide[k+1]]: a search of [guide[k],
    // guide[k+1]) that finds no CDF >= u returns guide[k+1] itself.
    if (!(u >= 0.0 && u < 1.0)) [[unlikely]]
        panic("ZipfSampler::rank: ", u, " is outside [0, 1)");
    const auto k = static_cast<std::size_t>(
        u * static_cast<double>(guide.size() - 1));
    const auto first = cdf.begin() + guide[k];
    const auto last = cdf.begin() + guide[k + 1];
    const auto index =
        static_cast<std::uint64_t>(std::lower_bound(first, last, u)
                                   - cdf.begin());
    return std::min<std::uint64_t>(index, cdf.size() - 1);
}

} // namespace dirsim
