/**
 * @file
 * DenseIdMap: append-only assignment of dense 32-bit ids to 64-bit
 * keys in order of first appearance.
 */

#ifndef DIRSIM_COMMON_DENSE_ID_MAP_HH
#define DIRSIM_COMMON_DENSE_ID_MAP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace dirsim
{

/**
 * The decode pass (sim/decoded.cc) calls insert-or-find once per
 * data record to densify block numbers, so the map it uses *is* the
 * decode hot path. std::unordered_map spends most of that time in
 * node allocation and bucket chasing; this table is a flat
 * open-addressed array of 4-byte ids with linear probing, a
 * power-of-two capacity grown at 50% load, and a multiplicative hash
 * that spreads the near-sequential block numbers traces produce. The
 * keys themselves are kept once, in id order (keys()), so a slot is a
 * quarter of a key-and-id pair and the decoder takes the key list as
 * its dense-to-block table. Ids are handed out as 0, 1, 2, ... by
 * first appearance — exactly the densification contract — and the
 * map never erases.
 */
class DenseIdMap
{
  public:
    DenseIdMap() : slots(initialCapacity, emptySlot) {}

    /**
     * The id for @p key, assigning `size()` on first sight.
     *
     * @return the id and whether this call inserted it
     */
    std::pair<std::uint32_t, bool> idFor(std::uint64_t key)
    {
        if ((keyList.size() + 1) * 2 > slots.size())
            grow();
        std::uint32_t &slot = probe(key);
        if (slot != emptySlot)
            return {slot, false};
        if (keyList.size() == maxIds) [[unlikely]]
            panic("DenseIdMap: more than 2^32 - 1 distinct keys");
        slot = static_cast<std::uint32_t>(keyList.size());
        keyList.push_back(key);
        return {slot, true};
    }

    /** Distinct keys seen so far. */
    std::size_t size() const { return keyList.size(); }

    /** Every key seen, indexed by its id. */
    const std::vector<std::uint64_t> &keys() const & { return keyList; }

    /** The key list, moved out of an expiring map. */
    std::vector<std::uint64_t> keys() && { return std::move(keyList); }

  private:
    /** An unoccupied slot; ids stop one short of it (maxIds). */
    static constexpr std::uint32_t emptySlot = 0xffffffffu;
    static constexpr std::size_t maxIds = emptySlot;
    static constexpr std::size_t initialCapacity = 1024;

    static std::size_t hash(std::uint64_t key, std::size_t mask)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull)
                                        >> 32)
            & mask;
    }

    /** The slot holding @p key's id, or the free slot it belongs in. */
    std::uint32_t &probe(std::uint64_t key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t index = hash(key, mask);
        while (slots[index] != emptySlot && keyList[slots[index]] != key)
            index = (index + 1) & mask;
        return slots[index];
    }

    /** Double the table, re-placing every id (the keys are distinct,
     *  so no key is compared). */
    void grow()
    {
        std::vector<std::uint32_t> next(slots.size() * 2, emptySlot);
        const std::size_t mask = next.size() - 1;
        for (std::size_t id = 0; id < keyList.size(); ++id) {
            std::size_t index = hash(keyList[id], mask);
            while (next[index] != emptySlot)
                index = (index + 1) & mask;
            next[index] = static_cast<std::uint32_t>(id);
        }
        slots.swap(next);
    }

    std::vector<std::uint32_t> slots;
    std::vector<std::uint64_t> keyList;
};

} // namespace dirsim

#endif // DIRSIM_COMMON_DENSE_ID_MAP_HH
