#include "directory/sharer_set.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace dirsim
{

SharerSet::SharerSet(unsigned num_caches_arg)
    : domain(num_caches_arg), words((num_caches_arg + 63) / 64, 0)
{
}

void
SharerSet::add(CacheId cache)
{
    panicIfNot(cache < domain,
               "SharerSet::add: cache ", cache, " out of domain ", domain);
    words[cache / 64] |= std::uint64_t{1} << (cache % 64);
}

void
SharerSet::remove(CacheId cache)
{
    panicIfNot(cache < domain,
               "SharerSet::remove: cache ", cache, " out of domain ",
               domain);
    words[cache / 64] &= ~(std::uint64_t{1} << (cache % 64));
}

bool
SharerSet::contains(CacheId cache) const
{
    panicIfNot(cache < domain,
               "SharerSet::contains: cache ", cache, " out of domain ",
               domain);
    return (words[cache / 64] >> (cache % 64)) & 1;
}

unsigned
SharerSet::count() const
{
    unsigned total = 0;
    for (std::uint64_t word : words)
        total += static_cast<unsigned>(std::popcount(word));
    return total;
}

bool
SharerSet::empty() const
{
    for (std::uint64_t word : words) {
        if (word != 0)
            return false;
    }
    return true;
}

bool
SharerSet::isOnly(CacheId cache) const
{
    panicIfNot(cache < domain,
               "SharerSet::isOnly: cache ", cache, " out of domain ",
               domain);
    // Single pass: every word must be zero except cache's home word,
    // which must be exactly cache's bit.
    const std::size_t home = cache / 64;
    for (std::size_t w = 0; w < words.size(); ++w) {
        const std::uint64_t expect =
            w == home ? std::uint64_t{1} << (cache % 64) : 0;
        if (words[w] != expect)
            return false;
    }
    return true;
}

unsigned
SharerSet::countExcluding(CacheId cache) const
{
    // Single pass: popcount every word with cache's bit (if any)
    // masked out of its home word. An out-of-domain cache excludes
    // nobody (callers pass invalidCacheId for "no keeper").
    const std::size_t home =
        cache < domain ? cache / 64 : words.size();
    unsigned total = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        if (w == home)
            word &= ~(std::uint64_t{1} << (cache % 64));
        total += static_cast<unsigned>(std::popcount(word));
    }
    return total;
}

CacheId
SharerSet::first() const
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (words[w] != 0) {
            return static_cast<CacheId>(
                w * 64
                + static_cast<unsigned>(std::countr_zero(words[w])));
        }
    }
    panic("SharerSet::first on an empty set");
}

CacheId
SharerSet::lastExcluding(CacheId excluded) const
{
    for (std::size_t w = words.size(); w-- > 0;) {
        std::uint64_t word = words[w];
        if (excluded / 64 == w)
            word &= ~(std::uint64_t{1} << (excluded % 64));
        if (word != 0) {
            return static_cast<CacheId>(
                w * 64 + 63
                - static_cast<unsigned>(std::countl_zero(word)));
        }
    }
    return invalidCacheId;
}

void
SharerSet::clear()
{
    for (auto &word : words)
        word = 0;
}

void
SharerSet::forEach(const std::function<void(CacheId)> &fn) const
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(word));
            fn(static_cast<CacheId>(w * 64 + bit));
            word &= word - 1;
        }
    }
}

std::vector<CacheId>
SharerSet::toVector() const
{
    std::vector<CacheId> out;
    out.reserve(count());
    forEach([&out](CacheId cache) { out.push_back(cache); });
    return out;
}

bool
SharerSet::isSupersetOf(const SharerSet &other) const
{
    panicIfNot(domain == other.domain,
               "SharerSet::isSupersetOf across different domains");
    for (std::size_t w = 0; w < words.size(); ++w) {
        if ((other.words[w] & ~words[w]) != 0)
            return false;
    }
    return true;
}

void
SharerStore::reset(unsigned domain_arg, std::uint64_t block_count)
{
    panicIfNot(domain_arg <= maxCacheDomain,
               "SharerStore: domain ", domain_arg,
               " exceeds the 16-bit inline id limit");
    domain = domain_arg;
    blocks = block_count;
    spillWords = domain > 64 ? (domain + 63) / 64 : 0;
    words.assign(wordMode() ? blocks : 2 * blocks, 0);
    spill.clear();
    freeSlices.clear();
}

CacheId
SharerStore::first(std::uint64_t block) const
{
    if (wordMode()) {
        const std::uint64_t word = words[block];
        panicIfNot(word != 0, "SharerStore::first on empty block ",
                   block);
        return static_cast<CacheId>(std::countr_zero(word));
    }
    const std::uint64_t lo = words[2 * block];
    if (lo & spillFlag) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(spillSlice(lo)) * spillWords;
        for (std::uint32_t w = 0; w < spillWords; ++w) {
            if (spill[base + w] != 0) {
                return static_cast<CacheId>(
                    w * 64
                    + static_cast<unsigned>(
                        std::countr_zero(spill[base + w])));
            }
        }
        panic("SharerStore::first: spilled block ", block,
              " has an empty slice");
    }
    panicIfNot(inlineCount(lo) > 0,
               "SharerStore::first on empty block ", block);
    return inlineId(block, 0);
}

CacheId
SharerStore::lastExcluding(std::uint64_t block, CacheId excluded) const
{
    if (wordMode()) {
        std::uint64_t word = words[block];
        if (excluded < domain)
            word &= ~(std::uint64_t{1} << excluded);
        if (word == 0)
            return invalidCacheId;
        return static_cast<CacheId>(
            63 - static_cast<unsigned>(std::countl_zero(word)));
    }
    const std::uint64_t lo = words[2 * block];
    if (lo & spillFlag) {
        const std::uint64_t base =
            static_cast<std::uint64_t>(spillSlice(lo)) * spillWords;
        for (std::uint32_t w = spillWords; w-- > 0;) {
            std::uint64_t word = spill[base + w];
            if (excluded < domain && excluded / 64 == w)
                word &= ~(std::uint64_t{1} << (excluded % 64));
            if (word != 0) {
                return static_cast<CacheId>(
                    w * 64 + 63
                    - static_cast<unsigned>(std::countl_zero(word)));
            }
        }
        return invalidCacheId;
    }
    const unsigned n = inlineCount(lo);
    for (unsigned slot = n; slot-- > 0;) {
        const CacheId id = inlineId(block, slot);
        if (id != excluded)
            return id;
    }
    return invalidCacheId;
}

void
SharerStore::clear(std::uint64_t block)
{
    if (wordMode()) {
        words[block] = 0;
        return;
    }
    const std::uint64_t lo = words[2 * block];
    if (lo & spillFlag)
        freeSlices.push_back(spillSlice(lo));
    words[2 * block] = 0;
    words[2 * block + 1] = 0;
}

SharerSet
SharerStore::snapshot(std::uint64_t block) const
{
    SharerSet out(domain);
    forEach(block, [&out](CacheId cache) { out.add(cache); });
    return out;
}

void
SharerStore::rangePanic(std::uint64_t block, CacheId cache,
                        const char *op) const
{
    panic("SharerStore::", op, ": block ", block, " / cache ", cache,
          " outside ", blocks, " blocks over domain ", domain);
}

void
SharerStore::addInline(std::uint64_t block, CacheId cache)
{
    std::array<CacheId, inlineSlots> ids;
    const unsigned n = loadInline(block, ids);
    unsigned pos = 0;
    while (pos < n && ids[pos] < cache)
        ++pos;
    if (pos < n && ids[pos] == cache)
        return;
    if (n == inlineSlots) {
        spillEntry(block, ids, cache);
        return;
    }
    for (unsigned i = n; i > pos; --i)
        ids[i] = ids[i - 1];
    ids[pos] = cache;
    storeInline(block, ids, n + 1);
}

void
SharerStore::removeInline(std::uint64_t block, CacheId cache)
{
    std::array<CacheId, inlineSlots> ids;
    const unsigned n = loadInline(block, ids);
    unsigned pos = 0;
    while (pos < n && ids[pos] < cache)
        ++pos;
    if (pos == n || ids[pos] != cache)
        return;
    for (unsigned i = pos + 1; i < n; ++i)
        ids[i - 1] = ids[i];
    storeInline(block, ids, n - 1);
}

void
SharerStore::storeInline(std::uint64_t block,
                         const std::array<CacheId, inlineSlots> &ids,
                         unsigned n)
{
    std::uint64_t lo = static_cast<std::uint64_t>(n)
                       << inlineCountShift;
    std::uint64_t hi = 0;
    for (unsigned slot = 0; slot < n; ++slot) {
        const std::uint64_t id = ids[slot] & 0xffffu;
        if (slot < loSlots)
            lo |= id << (16 * slot);
        else
            hi |= id << (16 * (slot - loSlots));
    }
    words[2 * block] = lo;
    words[2 * block + 1] = hi;
}

unsigned
SharerStore::loadInline(std::uint64_t block,
                        std::array<CacheId, inlineSlots> &ids) const
{
    const unsigned n = inlineCount(words[2 * block]);
    for (unsigned slot = 0; slot < n; ++slot)
        ids[slot] = inlineId(block, slot);
    return n;
}

void
SharerStore::spillEntry(std::uint64_t block,
                        const std::array<CacheId, inlineSlots> &ids,
                        CacheId extra)
{
    const std::uint32_t slice = claimSlice();
    for (const CacheId id : ids)
        spillWord(slice, id) |= std::uint64_t{1} << (id % 64);
    spillWord(slice, extra) |= std::uint64_t{1} << (extra % 64);
    words[2 * block] = spillFlag
                       | (static_cast<std::uint64_t>(slice)
                          << sliceShift)
                       | (inlineSlots + 1);
    words[2 * block + 1] = 0;
}

void
SharerStore::repackInline(std::uint64_t block)
{
    const std::uint64_t lo = words[2 * block];
    const std::uint32_t slice = spillSlice(lo);
    const std::uint64_t base =
        static_cast<std::uint64_t>(slice) * spillWords;
    std::array<CacheId, inlineSlots> ids;
    unsigned n = 0;
    for (std::uint32_t w = 0; w < spillWords; ++w) {
        visitWord(spill[base + w], w * 64u,
                  [&ids, &n](CacheId id) { ids[n++] = id; });
    }
    panicIfNot(n == spillCount(lo),
               "SharerStore::repackInline: slice holds ", n,
               " members but the entry counted ", spillCount(lo));
    freeSlices.push_back(slice);
    storeInline(block, ids, n);
}

std::uint32_t
SharerStore::claimSlice()
{
    if (!freeSlices.empty()) {
        const std::uint32_t slice = freeSlices.back();
        freeSlices.pop_back();
        std::fill_n(spill.begin()
                        + static_cast<std::int64_t>(
                            static_cast<std::uint64_t>(slice)
                            * spillWords),
                    spillWords, 0);
        return slice;
    }
    const std::uint32_t slice =
        static_cast<std::uint32_t>(spill.size() / spillWords);
    panicIfNot(slice < (1u << 24),
               "SharerStore: overflow arena exceeds the 24-bit slice "
               "index space");
    spill.resize(spill.size() + spillWords, 0);
    return slice;
}

} // namespace dirsim
