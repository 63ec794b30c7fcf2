/**
 * @file
 * Directory storage-overhead calculators for the Section 6
 * scalability discussion: bits of directory state per main-memory
 * block for each organization as a function of the number of caches.
 */

#ifndef DIRSIM_DIRECTORY_STORAGE_HH
#define DIRSIM_DIRECTORY_STORAGE_HH

#include <cstdint>

namespace dirsim
{

/** The directory organizations whose storage cost we can quote. */
enum class DirectoryOrg
{
    TangDuplicate,  ///< duplicate tag stores (cost depends on cache size)
    FullMap,        ///< Censier & Feautrier: n present bits + dirty
    TwoBit,         ///< Archibald & Baer: 2 bits
    LimitedPtr,     ///< Dir_i: i pointers of log2(n) bits + dirty
    LimitedPtrB,    ///< Dir_i B: Dir_i plus a broadcast bit
    CoarseVector,   ///< Section 6 ternary code: 2*log2(n) bits + dirty
    RegionVector,   ///< DirCVr<K>: ceil(n/K) region bits + dirty
};

/** Name of an organization, e.g. "full-map". */
const char *toString(DirectoryOrg org);

/** Parameters the storage formulas depend on. */
struct StorageParams
{
    unsigned numCaches = 4;       ///< n
    unsigned numPointers = 1;     ///< i, for the limited schemes
    /** RegionVector only: region granularity K (need not divide n). */
    unsigned regionSize = 16;
    /** Tang only: blocks per cache (duplicate tag count per cache). */
    std::uint64_t blocksPerCache = 4096;
    /** Tang only: tag width mirrored per block. */
    unsigned tagBits = 16;
    /** Main-memory blocks (to express Tang cost per memory block). */
    std::uint64_t memoryBlocks = 1u << 20;
};

/**
 * Directory bits per main-memory block for @p org.
 *
 * For pointer-based schemes this is exact; for TangDuplicate the
 * duplicate-tag storage (which scales with cache size, not memory
 * size) is amortized over memoryBlocks.
 */
double directoryBitsPerBlock(DirectoryOrg org,
                             const StorageParams &params);

} // namespace dirsim

#endif // DIRSIM_DIRECTORY_STORAGE_HH
