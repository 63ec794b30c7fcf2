#include "trace/trace.hh"

#include <unordered_set>

#include "common/logging.hh"

namespace dirsim
{

void
Trace::rejectCpu(const TraceRecord &record) const
{
    fatal("trace '", traceName, "' declared ", cpus,
          " CPUs but a record names cpu ", record.cpu);
}

std::size_t
Trace::countProcesses() const
{
    std::unordered_set<ProcId> pids;
    for (const auto &record : records)
        pids.insert(record.pid);
    return pids.size();
}

unsigned
Trace::observedCpus() const
{
    unsigned max_cpu = 0;
    bool any = false;
    for (const auto &record : records) {
        any = true;
        if (record.cpu > max_cpu)
            max_cpu = record.cpu;
    }
    return any ? max_cpu + 1 : 0;
}

} // namespace dirsim
