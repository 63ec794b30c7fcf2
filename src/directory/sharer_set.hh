/**
 * @file
 * Sharer tracking for the engine's holder oracle, in two forms:
 *
 *  - SharerSet: a self-contained dynamic bit vector over the cache
 *    domain, used for holder snapshots, invariant checks, and tests.
 *
 *  - SharerStore: the arena form the holder oracle keeps, the one
 *    record of who holds each block (protocols/protocol.hh).
 *    One flat word vector holds the sharer sets of *every* block, so
 *    a protocol instance makes a single allocation instead of one
 *    heap bit-vector per block. Per block the store keeps a hybrid
 *    entry: up to a handful of sharer ids packed inline in two
 *    machine words (the common case — the paper's own data shows
 *    sharer sets are almost always tiny), spilling to a wide bit
 *    vector drawn from a shared overflow arena only when a block
 *    accumulates more sharers than the inline form can hold.
 */

#ifndef DIRSIM_DIRECTORY_SHARER_SET_HH
#define DIRSIM_DIRECTORY_SHARER_SET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace dirsim
{

/** Bit-vector set of cache ids in [0, numCaches). */
class SharerSet
{
  public:
    SharerSet() = default;

    /** @param num_caches_arg domain size; ids must stay below it */
    explicit SharerSet(unsigned num_caches_arg);

    unsigned numCaches() const { return domain; }

    /** Insert @p cache; panics if out of domain. */
    void add(CacheId cache);

    /** Remove @p cache if present; panics if out of domain. */
    void remove(CacheId cache);

    /** True iff @p cache is a member; panics if out of domain. */
    bool contains(CacheId cache) const;

    /** Number of caches in the set. */
    unsigned count() const;

    bool empty() const;

    /** True iff the set is exactly {cache}; panics if out of domain. */
    bool isOnly(CacheId cache) const;

    /**
     * Number of members excluding @p cache. Unlike contains(),
     * @p cache need not lie in the domain (callers pass
     * invalidCacheId to mean "exclude nobody").
     */
    unsigned countExcluding(CacheId cache) const;

    /** Lowest-numbered member; panics when empty. */
    CacheId first() const;

    /**
     * Highest-numbered member other than @p excluded, or
     * invalidCacheId when no such member exists: the member a full
     * ascending visit would report last. @p excluded need not lie in
     * the domain.
     */
    CacheId lastExcluding(CacheId excluded) const;

    /** Remove every member. */
    void clear();

    /** Visit members in ascending order. */
    void forEach(const std::function<void(CacheId)> &fn) const;

    /** Members in ascending order (convenience for tests). */
    std::vector<CacheId> toVector() const;

    /** True iff this is a superset of @p other (same domain). */
    bool isSupersetOf(const SharerSet &other) const;

    bool operator==(const SharerSet &other) const = default;

  private:
    unsigned domain = 0;
    std::vector<std::uint64_t> words;
};

/** Non-owning view of a contiguous cache-id sequence. */
struct CacheIdSpan
{
    const CacheId *ptr = nullptr;
    std::uint32_t len = 0;

    const CacheId *begin() const { return ptr; }
    const CacheId *end() const { return ptr + len; }
    std::uint32_t size() const { return len; }
    bool empty() const { return len == 0; }
    CacheId front() const { return ptr[0]; }
    CacheId operator[](std::uint32_t i) const { return ptr[i]; }
};

/**
 * A small list of cache ids with inline storage, used to snapshot
 * holder sets before invalidation loops (the loop mutates the set it
 * was derived from, so it must iterate a copy — previously a heap
 * SharerSet or std::vector per invalidation).
 */
class CacheIdList
{
  public:
    void push(CacheId id)
    {
        if (n < inlineCap) {
            inlineIds[n++] = id;
            return;
        }
        if (spill.empty())
            spill.assign(inlineIds.begin(), inlineIds.end());
        spill.push_back(id);
        ++n;
    }

    std::uint32_t size() const { return n; }
    bool empty() const { return n == 0; }
    CacheId front() const { return *begin(); }

    const CacheId *begin() const
    {
        return n <= inlineCap ? inlineIds.data() : spill.data();
    }
    const CacheId *end() const { return begin() + n; }

    void clear()
    {
        n = 0;
        spill.clear();
    }

  private:
    static constexpr std::uint32_t inlineCap = 16;
    std::array<CacheId, inlineCap> inlineIds;
    std::vector<CacheId> spill;
    std::uint32_t n = 0;
};

/**
 * The largest coherence domain the engine holds: SharerStore's hybrid
 * mode stores cache ids inline as 16-bit values. decodeTrace()
 * (sim/decoded.hh) rejects a trace that needs more caches.
 */
inline constexpr unsigned maxCacheDomain = 0xffff;

/**
 * The per-block sharer sets of a whole dense arena, block-addressed.
 *
 * Storage is one flat word vector, sized once in reset():
 *
 *  - Word mode (domain <= 64): one word per block, a plain bitmask —
 *    the small-N paper grid keeps single-word codegen.
 *
 *  - Hybrid mode (64 < domain <= 65535): two words per block. While
 *    a block has at most 7 sharers their 16-bit ids are stored
 *    inline, sorted ascending (slots 0..2 in the low word, 3..6 in
 *    the high word, member count in low-word bits 56..58). The 8th
 *    add spills the block to a wide bit-vector slice claimed from a
 *    shared overflow arena that grows on demand; a spilled low word
 *    sets bit 63 and carries the member count (bits 0..31) and the
 *    slice index (bits 32..55). Slices are recycled through a free
 *    list when a block shrinks back to 7 sharers or clears, so
 *    overflow storage stays bounded by the peak number of
 *    simultaneously-wide sets, not by block count.
 *
 * count() is O(1) in every state, and iteration order is ascending
 * in all representations — bit-for-bit identical to SharerSet's
 * forEach, which the engine's event accounting depends on.
 */
class SharerStore
{
  public:
    SharerStore() = default;

    /** Size for @p block_count blocks over @p domain_arg caches. */
    void reset(unsigned domain_arg, std::uint64_t block_count);

    unsigned numCaches() const { return domain; }
    std::uint64_t blockCount() const { return blocks; }

    /** Insert; panics when @p cache or @p block is out of range. */
    void add(std::uint64_t block, CacheId cache)
    {
        checkRange(block, cache, "add");
        if (wordMode()) {
            words[block] |= std::uint64_t{1} << cache;
            return;
        }
        std::uint64_t &lo = words[2 * block];
        if (lo & spillFlag) {
            std::uint64_t &bits = spillWord(spillSlice(lo), cache);
            const std::uint64_t mask = std::uint64_t{1} << (cache % 64);
            if (!(bits & mask)) {
                bits |= mask;
                ++lo; // spilled count lives in the low bits
            }
            return;
        }
        addInline(block, cache);
    }

    /** Remove if present; panics when out of range. */
    void remove(std::uint64_t block, CacheId cache)
    {
        checkRange(block, cache, "remove");
        if (wordMode()) {
            words[block] &= ~(std::uint64_t{1} << cache);
            return;
        }
        std::uint64_t &lo = words[2 * block];
        if (lo & spillFlag) {
            std::uint64_t &bits = spillWord(spillSlice(lo), cache);
            const std::uint64_t mask = std::uint64_t{1} << (cache % 64);
            if (bits & mask) {
                bits &= ~mask;
                --lo;
                if (spillCount(lo) <= inlineSlots)
                    repackInline(block);
            }
            return;
        }
        removeInline(block, cache);
    }

    /** True iff @p cache holds @p block; panics when out of range. */
    bool contains(std::uint64_t block, CacheId cache) const
    {
        checkRange(block, cache, "contains");
        if (wordMode())
            return (words[block] >> cache) & 1;
        const std::uint64_t lo = words[2 * block];
        if (lo & spillFlag) {
            return (spillWord(spillSlice(lo), cache)
                    >> (cache % 64)) & 1;
        }
        const unsigned n = inlineCount(lo);
        for (unsigned slot = 0; slot < n; ++slot) {
            const CacheId id = inlineId(block, slot);
            if (id == cache)
                return true;
            if (id > cache)
                return false; // slots are sorted ascending
        }
        return false;
    }

    /** Number of sharers of @p block — O(1) in every state. */
    unsigned count(std::uint64_t block) const
    {
        if (wordMode()) {
            return static_cast<unsigned>(
                std::popcount(words[block]));
        }
        const std::uint64_t lo = words[2 * block];
        return lo & spillFlag ? spillCount(lo) : inlineCount(lo);
    }

    bool empty(std::uint64_t block) const { return count(block) == 0; }

    /**
     * Members excluding @p cache; like SharerSet::countExcluding,
     * @p cache may be out of domain ("exclude nobody").
     */
    unsigned countExcluding(std::uint64_t block, CacheId cache) const
    {
        const unsigned total = count(block);
        if (cache >= domain)
            return total;
        return total - (contains(block, cache) ? 1 : 0);
    }

    /** Lowest-numbered sharer; panics when the block has none. */
    CacheId first(std::uint64_t block) const;

    /**
     * Highest-numbered sharer other than @p excluded, or
     * invalidCacheId; matches SharerSet::lastExcluding (@p excluded
     * may be out of domain).
     */
    CacheId lastExcluding(std::uint64_t block, CacheId excluded) const;

    /** Remove every sharer of @p block. */
    void clear(std::uint64_t block);

    /** Visit the sharers of @p block in ascending order. */
    template <typename Fn>
    void forEach(std::uint64_t block, Fn &&fn) const
    {
        if (wordMode()) {
            visitWord(words[block], 0, fn);
            return;
        }
        const std::uint64_t lo = words[2 * block];
        if (lo & spillFlag) {
            const std::uint64_t base =
                static_cast<std::uint64_t>(spillSlice(lo)) * spillWords;
            for (std::uint32_t w = 0; w < spillWords; ++w)
                visitWord(spill[base + w], w * 64u, fn);
            return;
        }
        const unsigned n = inlineCount(lo);
        for (unsigned slot = 0; slot < n; ++slot)
            fn(inlineId(block, slot));
    }

    /** Append the sharers of @p block to @p out, ascending. */
    void appendTo(std::uint64_t block, CacheIdList &out) const
    {
        forEach(block, [&out](CacheId cache) { out.push(cache); });
    }

    /** Materialize the sharers of @p block as a SharerSet. */
    SharerSet snapshot(std::uint64_t block) const;

    /** Blocks currently spilled to the overflow arena (telemetry). */
    std::uint64_t spilledBlocks() const
    {
        if (spillWords == 0)
            return 0;
        return spill.size() / spillWords - freeSlices.size();
    }

  private:
    /** Inline sharer ids per hybrid entry (sorted, 16-bit each). */
    static constexpr unsigned inlineSlots = 7;
    /** Inline id slots stored in the low word (bits 0..47). */
    static constexpr unsigned loSlots = 3;
    /** Hybrid low-word bit 63 flags a spilled entry. */
    static constexpr std::uint64_t spillFlag = std::uint64_t{1} << 63;
    /** Inline member count: low-word bits 56..58. */
    static constexpr unsigned inlineCountShift = 56;
    static constexpr std::uint64_t inlineCountMask =
        std::uint64_t{0x7} << inlineCountShift;
    /** Spilled member count: low-word bits 0..31. */
    static constexpr std::uint64_t spillCountMask = 0xffffffffu;
    /** Spilled slice index: low-word bits 32..55. */
    static constexpr unsigned sliceShift = 32;
    static constexpr std::uint64_t sliceMask = std::uint64_t{0xffffff}
                                               << sliceShift;

    bool wordMode() const { return domain <= 64; }

    void checkRange(std::uint64_t block, CacheId cache,
                    const char *op) const
    {
        if (block >= blocks || cache >= domain)
            rangePanic(block, cache, op);
    }
    [[noreturn]] void rangePanic(std::uint64_t block, CacheId cache,
                                 const char *op) const;

    static unsigned inlineCount(std::uint64_t lo)
    {
        return static_cast<unsigned>(
            (lo & inlineCountMask) >> inlineCountShift);
    }
    static unsigned spillCount(std::uint64_t lo)
    {
        return static_cast<unsigned>(lo & spillCountMask);
    }
    static std::uint32_t spillSlice(std::uint64_t lo)
    {
        return static_cast<std::uint32_t>((lo & sliceMask)
                                          >> sliceShift);
    }

    /** Inline slot @p slot of @p block: slots 0..2 sit in the low
     *  word at bits 0/16/32, slots 3..6 in the high word. */
    CacheId inlineId(std::uint64_t block, unsigned slot) const
    {
        const std::uint64_t word =
            slot < loSlots ? words[2 * block] : words[2 * block + 1];
        const unsigned shift =
            16 * (slot < loSlots ? slot : slot - loSlots);
        return static_cast<CacheId>((word >> shift) & 0xffff);
    }

    std::uint64_t &spillWord(std::uint32_t slice, CacheId cache)
    {
        return spill[static_cast<std::uint64_t>(slice) * spillWords
                     + cache / 64];
    }
    const std::uint64_t &spillWord(std::uint32_t slice,
                                   CacheId cache) const
    {
        return spill[static_cast<std::uint64_t>(slice) * spillWords
                     + cache / 64];
    }

    template <typename Fn>
    static void visitWord(std::uint64_t word, unsigned base, Fn &&fn)
    {
        while (word != 0) {
            const unsigned bit =
                static_cast<unsigned>(std::countr_zero(word));
            fn(static_cast<CacheId>(base + bit));
            word &= word - 1;
        }
    }

    void addInline(std::uint64_t block, CacheId cache);
    void removeInline(std::uint64_t block, CacheId cache);
    void storeInline(std::uint64_t block,
                     const std::array<CacheId, inlineSlots> &ids,
                     unsigned n);
    unsigned loadInline(std::uint64_t block,
                        std::array<CacheId, inlineSlots> &ids) const;
    void spillEntry(std::uint64_t block,
                    const std::array<CacheId, inlineSlots> &ids,
                    CacheId extra);
    void repackInline(std::uint64_t block);
    std::uint32_t claimSlice();

    unsigned domain = 0;
    std::uint64_t blocks = 0;
    /** Bits per spilled slice, in 64-bit words: ceil(domain / 64). */
    std::uint32_t spillWords = 0;
    /** Word mode: 1 word per block. Hybrid: 2 words per block. */
    std::vector<std::uint64_t> words;
    /** Overflow arena: slices of spillWords words, grown on demand. */
    std::vector<std::uint64_t> spill;
    /** Recycled slice indices (freed by repack/clear). */
    std::vector<std::uint32_t> freeSlices;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_SHARER_SET_HH
