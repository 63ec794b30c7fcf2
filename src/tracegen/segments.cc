#include "tracegen/segments.hh"

#include "common/logging.hh"
#include "trace/trace.hh"
#include "tracegen/address_space.hh"

namespace dirsim
{

const char *
toString(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::UserCode:
        return "user-code";
      case SegmentKind::PrivateData:
        return "private-data";
      case SegmentKind::SharedData:
        return "shared-data";
      case SegmentKind::Lock:
        return "lock";
      case SegmentKind::Mailbox:
        return "mailbox";
      case SegmentKind::KernelCode:
        return "kernel-code";
      case SegmentKind::KernelData:
        return "kernel-data";
      case SegmentKind::KernelProc:
        return "kernel-proc";
      case SegmentKind::Unknown:
        return "unknown";
    }
    panic("unknown SegmentKind ", static_cast<int>(kind));
}

SegmentKind
classifyAddress(Addr addr)
{
    using AS = AddressSpace;
    // Segments are ascending, disjoint 4 GiB regions.
    if (addr < AS::codeBase)
        return SegmentKind::Unknown;
    if (addr < AS::privateBase)
        return SegmentKind::UserCode;
    if (addr < AS::sharedBase)
        return SegmentKind::PrivateData;
    if (addr < AS::lockBase)
        return SegmentKind::SharedData;
    if (addr < AS::mailboxBase)
        return SegmentKind::Lock;
    if (addr < AS::kernelCodeBase)
        return SegmentKind::Mailbox;
    if (addr < AS::kernelDataBase)
        return SegmentKind::KernelCode;
    if (addr < AS::kernelProcBase)
        return SegmentKind::KernelData;
    if (addr < AS::kernelProcBase + 0x1'0000'0000ull)
        return SegmentKind::KernelProc;
    return SegmentKind::Unknown;
}

double
SegmentProfile::fraction(SegmentKind kind) const
{
    if (total == 0)
        return 0.0;
    return static_cast<double>(count(kind))
        / static_cast<double>(total);
}

void
SegmentProfile::add(Addr addr)
{
    ++refs[static_cast<int>(classifyAddress(addr))];
    ++total;
}

SegmentProfile
profileSegments(const Trace &trace)
{
    SegmentProfile profile;
    for (const auto &record : trace)
        profile.add(record.addr);
    return profile;
}

} // namespace dirsim
