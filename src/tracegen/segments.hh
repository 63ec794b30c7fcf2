/**
 * @file
 * Classification of synthetic-trace addresses back to their segment,
 * for analysis tools: given an address from a generated trace, which
 * kind of data is it (private, shared pool, lock word, migratory
 * lock region, kernel, code)?
 */

#ifndef DIRSIM_TRACEGEN_SEGMENTS_HH
#define DIRSIM_TRACEGEN_SEGMENTS_HH

#include <string>

#include "common/types.hh"

namespace dirsim
{

class Trace;

/** The address segments of tracegen/address_space.hh. */
enum class SegmentKind
{
    UserCode,    ///< per-process instruction stream
    PrivateData, ///< per-process data
    SharedData,  ///< application shared pool
    Lock,        ///< lock words
    Mailbox,     ///< lock-protected migratory payload/work regions
    KernelCode,  ///< OS instruction stream
    KernelData,  ///< shared kernel data
    KernelProc,  ///< per-process kernel data (stacks, u-areas)
    Unknown,     ///< not a tracegen address
};

/** Segment name, e.g. "shared-data". */
const char *toString(SegmentKind kind);

/** Classify an address against the tracegen address-space layout. */
SegmentKind classifyAddress(Addr addr);

/** Per-segment reference counts of a trace. */
struct SegmentProfile
{
    /** refs[kind] = number of references into that segment. */
    std::uint64_t refs[static_cast<int>(SegmentKind::Unknown) + 1] =
        {};

    std::uint64_t total = 0;

    /** Count one reference to @p addr. */
    void add(Addr addr);

    std::uint64_t
    count(SegmentKind kind) const
    {
        return refs[static_cast<int>(kind)];
    }

    /** Fraction of all references in @p kind (0 when empty). */
    double fraction(SegmentKind kind) const;
};

/** Count every reference of @p trace by segment. */
SegmentProfile profileSegments(const Trace &trace);

} // namespace dirsim

#endif // DIRSIM_TRACEGEN_SEGMENTS_HH
