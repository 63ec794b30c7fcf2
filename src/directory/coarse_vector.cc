#include "directory/coarse_vector.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace dirsim
{

namespace
{

/** Digit count: ternary needs ceil(log2 n), regions ceil(n / K). */
unsigned
digitCount(unsigned num_caches, unsigned region_size)
{
    if (region_size == 0)
        return std::max(1u, ceilLog2(std::max(1u, num_caches)));
    return (num_caches + region_size - 1) / region_size;
}

} // namespace

template <bool Mutable>
void
CoarseVectorDirectory::BasicEntry<Mutable>::add(CacheId cache)
    requires Mutable
{
    panicIfNot(cache < dir->caches, "CoarseVectorDirectory: cache ",
               cache, " out of domain ", dir->caches);
    if (dir->regionGranularity != 0) {
        const unsigned region = cache / dir->regionGranularity;
        code[region / 64] |= std::uint64_t{1} << (region % 64);
    } else if (empty()) {
        // Every digit fixed to the cache's bits.
        code[0] = (std::uint64_t{dir->digitMask()} << 32) | cache;
    } else {
        // Digits where the cache differs from the code become BOTH.
        const std::uint32_t mask = ternaryMask() & ~(ternaryValue() ^ cache);
        code[0] = (std::uint64_t{mask} << 32) | (ternaryValue() & mask);
    }
    *flags |= memberFlag;
}

template <bool Mutable>
void
CoarseVectorDirectory::BasicEntry<Mutable>::clear() requires Mutable
{
    std::memset(code, 0, dir->codeWordCount * sizeof(std::uint64_t));
    *flags = static_cast<std::uint8_t>(*flags & ~memberFlag);
}

template <bool Mutable>
bool
CoarseVectorDirectory::BasicEntry<Mutable>::denotes(CacheId cache) const
{
    if (empty() || cache >= dir->caches)
        return false;
    if (dir->regionGranularity != 0) {
        const unsigned region = cache / dir->regionGranularity;
        return (code[region / 64] >> (region % 64)) & 1;
    }
    return (cache & ternaryMask()) == ternaryValue();
}

template <bool Mutable>
unsigned
CoarseVectorDirectory::BasicEntry<Mutable>::bothDigits() const
{
    if (empty() || dir->regionGranularity != 0)
        return 0;
    return dir->numDigits
           - static_cast<unsigned>(std::popcount(ternaryMask()));
}

template <bool Mutable>
unsigned
CoarseVectorDirectory::BasicEntry<Mutable>::flaggedRegions() const
{
    panicIfNot(dir->regionGranularity != 0,
               "flaggedRegions() on a ternary CoarseVectorDirectory");
    unsigned n = 0;
    for (unsigned w = 0; w < dir->codeWordCount; ++w)
        n += static_cast<unsigned>(std::popcount(code[w]));
    return n;
}

template <bool Mutable>
SharerSet
CoarseVectorDirectory::BasicEntry<Mutable>::decode() const
{
    SharerSet result(dir->caches);
    for (CacheId cache = 0; cache < dir->caches; ++cache) {
        if (denotes(cache))
            result.add(cache);
    }
    return result;
}

template <bool Mutable>
unsigned
CoarseVectorDirectory::BasicEntry<Mutable>::supersetSize() const
{
    if (empty())
        return 0;
    const unsigned n = dir->caches;
    const unsigned k = dir->regionGranularity;
    if (k != 0) {
        // Every flagged region is K wide except a clipped last one:
        // counting K for it would overstate the fan-out when K does
        // not divide n.
        const unsigned last = dir->numDigits - 1;
        const bool last_flagged = (code[last / 64] >> (last % 64)) & 1;
        return flaggedRegions() * k
               - (last_flagged ? k - (n - last * k) : 0);
    }
    // Count the x < n with (x & mask) == value. Walking n's bits from
    // the top while x's prefix equals n's: where n has a 1 and x may
    // take a 0, every completion of x's free lower digits is below n;
    // the walk ends where the code forces x off n's prefix.
    const std::uint32_t mask = ternaryMask();
    const std::uint32_t value = ternaryValue();
    const std::uint32_t free = ~mask & dir->digitMask();
    unsigned count = 0;
    for (unsigned b = dir->numDigits + 1; b-- > 0;) {
        const std::uint32_t bit = std::uint32_t{1} << b;
        const bool fixed = mask & bit;
        const bool one = value & bit;
        if (n & bit) {
            if (!(fixed && one))
                count += 1u << std::popcount(free & (bit - 1));
            if (fixed && !one)
                return count;
        } else if (fixed && one) {
            return count;
        }
    }
    return count; // x == n itself is not below n
}

template <bool Mutable>
std::string
CoarseVectorDirectory::BasicEntry<Mutable>::toString() const
{
    if (empty())
        return "(empty)";
    std::string out;
    if (dir->regionGranularity != 0) {
        // Region bits, region 0 first: "1.0.1" (flagged/unflagged).
        for (unsigned r = 0; r < dir->numDigits; ++r) {
            if (r != 0)
                out += '.';
            out += (code[r / 64] >> (r % 64)) & 1 ? '1' : '0';
        }
        return out;
    }
    // Most-significant digit first, matching the paper's description
    // of the word as an index.
    for (unsigned d = dir->numDigits; d-- > 0;) {
        if (!((ternaryMask() >> d) & 1))
            out += '*';
        else
            out += (ternaryValue() >> d) & 1 ? '1' : '0';
        if (d != 0)
            out += ' ';
    }
    return out;
}

template class CoarseVectorDirectory::BasicEntry<true>;
template class CoarseVectorDirectory::BasicEntry<false>;

CoarseVectorDirectory::CoarseVectorDirectory(unsigned num_caches_arg,
                                             unsigned region_size_arg,
                                             std::uint64_t block_count)
    : caches(num_caches_arg), regionGranularity(region_size_arg),
      numDigits(0), codeWordCount(0), blocks(block_count)
{
    fatalIf(caches == 0, "directory needs at least one cache");
    fatalIf(caches > maxCacheDomain, "a coarse-vector directory over ",
            caches, " caches exceeds the domain limit of ",
            maxCacheDomain);
    numDigits = digitCount(caches, regionGranularity);
    codeWordCount = regionGranularity == 0 ? 1 : (numDigits + 63) / 64;
    words = callocArena<std::uint64_t>(block_count * codeWordCount);
    flags = callocArena<std::uint8_t>(block_count);
}

unsigned
CoarseVectorDirectory::regionCount() const
{
    panicIfNot(regionGranularity != 0,
               "regionCount() on a ternary CoarseVectorDirectory");
    return numDigits;
}

unsigned
CoarseVectorDirectory::regionWidth(unsigned region) const
{
    panicIfNot(regionGranularity != 0,
               "regionWidth() on a ternary CoarseVectorDirectory");
    panicIfNot(region < numDigits, "CoarseVectorDirectory: region ",
               region, " out of range ", numDigits);
    // The last region is clipped when K does not divide n.
    const unsigned begin = region * regionGranularity;
    return std::min(regionGranularity, caches - begin);
}

void
CoarseVectorDirectory::rangePanic(BlockNum block) const
{
    panic("CoarseVectorDirectory: block ", block,
          " outside the arena of ", blocks, " blocks");
}

} // namespace dirsim
