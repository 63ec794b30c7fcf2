#include "trace/trace_stats.hh"

#include <unordered_map>
#include <unordered_set>

#include "common/bitops.hh"

namespace dirsim
{

double
TraceStats::readWriteRatio() const
{
    if (dataWrites == 0)
        return 0.0;
    return static_cast<double>(dataReads)
        / static_cast<double>(dataWrites);
}

double
TraceStats::spinReadFraction() const
{
    if (dataReads == 0)
        return 0.0;
    return static_cast<double>(lockSpinReads)
        / static_cast<double>(dataReads);
}

double
TraceStats::systemFraction() const
{
    if (refs == 0)
        return 0.0;
    return static_cast<double>(sys) / static_cast<double>(refs);
}

double
TraceStats::sharedBlockFraction() const
{
    if (dataBlocks == 0)
        return 0.0;
    return static_cast<double>(sharedDataBlocks)
        / static_cast<double>(dataBlocks);
}

TraceStatsBuilder::TraceStatsBuilder(unsigned block_bytes_arg)
    : blockBytes(block_bytes_arg)
{
    checkBlockSize(blockBytes);
}

void
TraceStatsBuilder::add(const TraceRecord &record)
{
    ++stats.refs;
    pids.insert(record.pid);
    if (record.isSystem())
        ++stats.sys;
    else
        ++stats.user;

    if (record.isInstr()) {
        ++stats.instr;
        return;
    }
    if (record.isRead()) {
        ++stats.dataReads;
        if (record.isLockSpin())
            ++stats.lockSpinReads;
    } else {
        ++stats.dataWrites;
        if (record.isLockWrite())
            ++stats.lockWrites;
    }

    // block -> first accessor, promoted to the shared set on a second
    // distinct process.
    const BlockNum block = blockNumber(record.addr, blockBytes);
    const auto [it, inserted] = firstAccessor.emplace(block, record.pid);
    if (!inserted && it->second != record.pid)
        shared.insert(block);
}

TraceStats
TraceStatsBuilder::finish(const std::string &name_arg,
                          unsigned num_cpus_arg) const
{
    TraceStats result = stats;
    result.name = name_arg;
    result.numCpus = num_cpus_arg;
    result.numProcesses = pids.size();
    result.dataBlocks = firstAccessor.size();
    result.sharedDataBlocks = shared.size();
    return result;
}

TraceStats
computeTraceStats(const Trace &trace, unsigned block_bytes)
{
    TraceStatsBuilder builder(block_bytes);
    for (const auto &record : trace)
        builder.add(record);
    return builder.finish(trace.name(), trace.numCpus());
}

TraceStats
computeTraceStats(TraceSource &source, unsigned block_bytes)
{
    TraceStatsBuilder builder(block_bytes);
    TraceRecord record;
    while (source.next(record))
        builder.add(record);
    return builder.finish(source.name(), source.numCpus());
}

std::vector<bool>
detectSpinReads(const Trace &trace, unsigned threshold)
{
    struct WordState
    {
        ProcId last_reader = 0;
        unsigned run = 0;       ///< consecutive same-process reads
        std::vector<std::size_t> run_indices;
    };

    std::vector<bool> spin(trace.size(), false);
    std::unordered_map<Addr, WordState> words;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &record = trace[i];
        if (record.isInstr())
            continue;
        auto &state = words[record.addr];
        if (record.isWrite()) {
            state.run = 0;
            state.run_indices.clear();
            continue;
        }
        if (state.run > 0 && state.last_reader == record.pid) {
            ++state.run;
        } else {
            state.run = 1;
            state.last_reader = record.pid;
            state.run_indices.clear();
        }
        state.run_indices.push_back(i);
        if (state.run >= threshold) {
            // Mark the whole run once it qualifies as a spin.
            for (std::size_t idx : state.run_indices)
                spin[idx] = true;
        }
    }
    return spin;
}

} // namespace dirsim
