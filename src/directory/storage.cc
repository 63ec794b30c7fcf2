#include "directory/storage.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace dirsim
{

const char *
toString(DirectoryOrg org)
{
    switch (org) {
      case DirectoryOrg::TangDuplicate:
        return "tang-duplicate";
      case DirectoryOrg::FullMap:
        return "full-map";
      case DirectoryOrg::TwoBit:
        return "two-bit";
      case DirectoryOrg::LimitedPtr:
        return "limited-ptr";
      case DirectoryOrg::LimitedPtrB:
        return "limited-ptr+b";
      case DirectoryOrg::CoarseVector:
        return "coarse-vector";
      case DirectoryOrg::RegionVector:
        return "region-vector";
    }
    panic("unknown DirectoryOrg ", static_cast<int>(org));
}

double
directoryBitsPerBlock(DirectoryOrg org, const StorageParams &params)
{
    fatalIf(params.numCaches == 0, "storage formula needs n >= 1");
    const unsigned ptr_bits =
        std::max(1u, ceilLog2(std::max(1u, params.numCaches)));

    switch (org) {
      case DirectoryOrg::TangDuplicate: {
        fatalIf(params.memoryBlocks == 0,
                "Tang amortization needs memoryBlocks > 0");
        // Each cache's tag store is duplicated: (tag + dirty) bits per
        // cached block, n caches, amortized over main memory.
        const double total =
            static_cast<double>(params.numCaches)
            * static_cast<double>(params.blocksPerCache)
            * static_cast<double>(params.tagBits + 1);
        return total / static_cast<double>(params.memoryBlocks);
      }
      case DirectoryOrg::FullMap:
        // n present bits + 1 dirty bit.
        return static_cast<double>(params.numCaches) + 1.0;
      case DirectoryOrg::TwoBit:
        return 2.0;
      case DirectoryOrg::LimitedPtr:
        // i pointers of ceil(log2 n) bits, a valid count of
        // ceil(log2(i+1)) bits, and a dirty bit.
        return static_cast<double>(params.numPointers) * ptr_bits
            + ceilLog2(params.numPointers + 1) + 1.0;
      case DirectoryOrg::LimitedPtrB:
        return directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params)
            + 1.0;
      case DirectoryOrg::CoarseVector:
        // 2 bits per ternary digit (paper: 2*log2 n) + dirty bit.
        return 2.0 * ptr_bits + 1.0;
      case DirectoryOrg::RegionVector:
        // One presence bit per K-cache region (last region clipped,
        // but it still needs its own bit) + dirty bit.
        fatalIf(params.regionSize == 0,
                "region-vector storage needs a region size >= 1");
        return static_cast<double>((params.numCaches
                                    + params.regionSize - 1)
                                   / params.regionSize)
            + 1.0;
    }
    panic("unknown DirectoryOrg ", static_cast<int>(org));
}

} // namespace dirsim
