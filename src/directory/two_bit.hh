/**
 * @file
 * Archibald & Baer two-bit directory (Dir_0 B): each main-memory
 * block carries one of four states and no cache pointers, so every
 * invalidation or write-back request is a broadcast.
 */

#ifndef DIRSIM_DIRECTORY_TWO_BIT_HH
#define DIRSIM_DIRECTORY_TWO_BIT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dirsim
{

/** The four Archibald & Baer block states (2 bits in hardware). */
enum class TwoBitState : std::uint8_t
{
    NotCached = 0,  ///< block in no cache
    CleanOne = 1,   ///< clean in exactly one cache
    CleanMany = 2,  ///< clean in an unknown number of caches
    DirtyOne = 3,   ///< dirty in exactly one cache
};

/** Human-readable state name. */
const char *toString(TwoBitState state);

/**
 * Two-bit directory: one state per block in [0, block_count), every
 * block NotCached until a cache obtains it.
 *
 * The CleanOne state is the scheme's optimization: a write hit by the
 * sole holder needs no invalidation broadcast.
 */
class TwoBitDirectory
{
  public:
    /** @param block_count blocks the directory covers */
    explicit TwoBitDirectory(std::uint64_t block_count);

    /** Current state of @p block (NotCached outside the arena). */
    TwoBitState state(BlockNum block) const;

    /** Overwrite the state of @p block. */
    void setState(BlockNum block, TwoBitState state);

    /**
     * Record a (non-first) cache obtaining a clean copy:
     * NotCached -> CleanOne -> CleanMany; DirtyOne is illegal here
     * (the protocol must flush first) and panics.
     */
    void addCleanCopy(BlockNum block);

    /** Record a cache obtaining the sole dirty copy. */
    void makeDirty(BlockNum block);

    /** Record invalidation of all copies. */
    void makeUncached(BlockNum block);

  private:
    std::vector<TwoBitState> states;
};

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_TWO_BIT_HH
