/**
 * @file
 * In-memory multiprocessor address trace.
 */

#ifndef DIRSIM_TRACE_TRACE_HH
#define DIRSIM_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace dirsim
{

/**
 * An ordered multiprocessor address trace plus its metadata.
 *
 * The record order is the global interleaving observed on the traced
 * machine; the paper notes that the temporal ordering of
 * synchronization activity must be preserved, so the trace is always
 * processed strictly in order.
 */
class Trace
{
  public:
    Trace() = default;

    /**
     * @param name_arg workload name ("pops", ...)
     * @param num_cpus_arg number of CPUs that produced the trace
     */
    Trace(std::string name_arg, unsigned num_cpus_arg)
        : traceName(std::move(name_arg)), cpus(num_cpus_arg)
    {}

    /** Append a record (validates the record's cpu index). Defined
     *  here so that it inlines into the generator's loops. */
    void append(const TraceRecord &record)
    {
        if (cpus != 0 && record.cpu >= cpus) [[unlikely]]
            rejectCpu(record);
        records.push_back(record);
    }

    /** Reserve storage for @p n records. */
    void reserve(std::size_t n) { records.reserve(n); }

    const std::string &name() const { return traceName; }
    void setName(std::string name_arg) { traceName = std::move(name_arg); }

    unsigned numCpus() const { return cpus; }
    void setNumCpus(unsigned num_cpus_arg) { cpus = num_cpus_arg; }

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }

    const TraceRecord &operator[](std::size_t i) const
    {
        return records[i];
    }

    auto begin() const { return records.begin(); }
    auto end() const { return records.end(); }

    /** Direct access for bulk operations (readers, filters). */
    const std::vector<TraceRecord> &data() const { return records; }

    /** Number of distinct process ids appearing in the trace. */
    std::size_t countProcesses() const;

    /** Largest cpu index appearing plus one (0 for empty traces). */
    unsigned observedCpus() const;

  private:
    /** Throw the UsageError for a record whose cpu is out of range. */
    [[noreturn, gnu::cold]] void rejectCpu(const TraceRecord &record) const;

    std::string traceName;
    unsigned cpus = 0;
    std::vector<TraceRecord> records;
};

} // namespace dirsim

#endif // DIRSIM_TRACE_TRACE_HH
