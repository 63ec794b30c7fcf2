#include "directory/coarse_vector.hh"

#include <algorithm>

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

CoarseVector::CoarseVector(unsigned num_caches_arg,
                           unsigned region_size_arg)
    : numCaches(num_caches_arg), regionGranularity(region_size_arg),
      numDigits(digitCount(num_caches_arg, region_size_arg))
{
    fatalIf(numCaches == 0, "CoarseVector over an empty domain");
    const unsigned words =
        (numDigits + digitsPerWord - 1) / digitsPerWord;
    if (words > inlineWords)
        heapCode.assign(words, 0);
}

void
CoarseVector::add(CacheId cache)
{
    panicIfNot(cache < numCaches,
               "CoarseVector::add: cache ", cache, " out of domain ",
               numCaches);
    if (regionGranularity != 0) {
        setDigit(cache / regionGranularity, Digit::One);
        hasMember = true;
        return;
    }
    if (!hasMember) {
        for (unsigned d = 0; d < numDigits; ++d)
            setDigit(d, ((cache >> d) & 1) ? Digit::One : Digit::Zero);
        hasMember = true;
        return;
    }
    for (unsigned d = 0; d < numDigits; ++d) {
        const Digit bit = ((cache >> d) & 1) ? Digit::One : Digit::Zero;
        const Digit cur = digitAt(d);
        if (cur != Digit::Both && cur != bit)
            setDigit(d, Digit::Both);
    }
}

void
CoarseVector::clear()
{
    hasMember = false;
    // Digit::Zero packs to 0, so the code word array just zero-fills.
    if (heapCode.empty())
        inlineCode.fill(0);
    else
        std::fill(heapCode.begin(), heapCode.end(), 0);
}

unsigned
CoarseVector::bothDigits() const
{
    unsigned n = 0;
    for (unsigned d = 0; d < numDigits; ++d)
        n += digitAt(d) == Digit::Both ? 1 : 0;
    return n;
}

unsigned
CoarseVector::regionCount() const
{
    panicIfNot(regionGranularity != 0,
               "regionCount() on a ternary CoarseVector");
    return numDigits;
}

unsigned
CoarseVector::regionWidth(unsigned region) const
{
    panicIfNot(regionGranularity != 0,
               "regionWidth() on a ternary CoarseVector");
    panicIfNot(region < numDigits, "CoarseVector: region ", region,
               " out of range ", numDigits);
    // The last region is clipped when K does not divide n.
    const unsigned begin = region * regionGranularity;
    return std::min(regionGranularity, numCaches - begin);
}

unsigned
CoarseVector::flaggedRegions() const
{
    panicIfNot(regionGranularity != 0,
               "flaggedRegions() on a ternary CoarseVector");
    unsigned n = 0;
    for (unsigned r = 0; r < numDigits; ++r)
        n += digitAt(r) == Digit::One ? 1 : 0;
    return n;
}

void
CoarseVector::fixedBits(unsigned &mask, unsigned &val) const
{
    mask = 0;
    val = 0;
    for (unsigned d = 0; d < numDigits; ++d) {
        const Digit dig = digitAt(d);
        if (dig == Digit::Both)
            continue;
        mask |= 1u << d;
        if (dig == Digit::One)
            val |= 1u << d;
    }
}

SharerSet
CoarseVector::decode() const
{
    SharerSet result(numCaches);
    forEachMember([&](CacheId cache) { result.add(cache); });
    return result;
}

unsigned
CoarseVector::supersetSize() const
{
    if (!hasMember)
        return 0;
    if (regionGranularity != 0) {
        // Sum of clipped widths: counting regionGranularity for the
        // last region would overstate the fan-out when K does not
        // divide n.
        unsigned size = 0;
        for (unsigned r = 0; r < numDigits; ++r)
            if (digitAt(r) == Digit::One)
                size += regionWidth(r);
        return size;
    }
    unsigned mask = 0;
    unsigned val = 0;
    fixedBits(mask, val);
    unsigned size = 0;
    for (CacheId cache = 0; cache < numCaches; ++cache)
        size += (cache & mask) == val ? 1 : 0;
    return size;
}

std::string
CoarseVector::toString() const
{
    std::string out;
    if (regionGranularity != 0) {
        // Region bits, region 0 first: "1.0.1" (flagged/unflagged).
        for (unsigned r = 0; r < numDigits; ++r) {
            if (r != 0)
                out += '.';
            out += digitAt(r) == Digit::One ? '1' : '0';
        }
        return hasMember ? out : std::string("(empty)");
    }
    // Most-significant digit first, matching the paper's description
    // of the word as an index.
    for (unsigned d = numDigits; d-- > 0;) {
        switch (digitAt(d)) {
          case Digit::Zero:
            out += '0';
            break;
          case Digit::One:
            out += '1';
            break;
          case Digit::Both:
            out += '*';
            break;
        }
        if (d != 0)
            out += ' ';
    }
    return hasMember ? out : std::string("(empty)");
}

CoarseVectorDirectory::CoarseVectorDirectory(unsigned num_caches_arg,
                                             unsigned region_size_arg,
                                             std::uint64_t block_count)
    : caches(num_caches_arg), regionGranularity(region_size_arg)
{
    fatalIf(caches == 0, "directory needs at least one cache");
    entries.assign(block_count, Entry(caches, regionGranularity));
}

CoarseVectorDirectory::Entry &
CoarseVectorDirectory::entry(BlockNum block)
{
    panicIfNot(block < entries.size(),
               "CoarseVectorDirectory: block ", block,
               " outside the arena of ", entries.size(), " blocks");
    return entries[block];
}

const CoarseVectorDirectory::Entry *
CoarseVectorDirectory::find(BlockNum block) const
{
    return block < entries.size() ? &entries[block] : nullptr;
}

} // namespace dirsim
