#include "trace/filter.hh"

namespace dirsim
{

namespace
{

/** Copy metadata and the records selected by @p keep. */
template <typename Pred>
Trace
filterTrace(const Trace &trace, Pred keep)
{
    Trace out(trace.name(), trace.numCpus());
    out.reserve(trace.size());
    for (const auto &record : trace) {
        if (keep(record))
            out.append(record);
    }
    return out;
}

} // namespace

Trace
excludeLockRefs(const Trace &trace)
{
    return filterTrace(trace, [](const TraceRecord &r) {
        return !r.isLockRef();
    });
}

Trace
excludeSpinReads(const Trace &trace)
{
    return filterTrace(trace, [](const TraceRecord &r) {
        return !r.isLockSpin();
    });
}

Trace
keepUserOnly(const Trace &trace)
{
    return filterTrace(trace, [](const TraceRecord &r) {
        return !r.isSystem();
    });
}

} // namespace dirsim
