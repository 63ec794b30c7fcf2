/**
 * @file
 * Example: replay one trace under one scheme and narrate every
 * protocol event on a single block.
 *
 * Usage: dirsim_explain <scheme> [workload|trace-file] [block|auto]
 *                       [refs] [seed]
 *   scheme      any registry name; '_' and '-' are ignored, so
 *               "dir1_nb" and "Dir1NB" both work
 *   workload    pops | thor | pero (default pops), generated with
 *               refs (default 200000) and seed (default 1); or a
 *               path to a trace file (".txt" = text, else binary)
 *   block       block number to follow (decimal or 0x hex), or
 *               "auto" (default): the hottest lock-write block —
 *               usually the spin lock the workload contends on
 *
 * The replay attaches an EventTracer session with sample period 1
 * and a block filter, so every state transition of the chosen block
 * is captured: the event the protocol classified, the cache state
 * before and after, how many other caches held the block, and the
 * bus operations (costed on the paper's pipelined bus) the
 * transition performed. Cache states are protocol-internal ids; 0
 * is always "not present".
 */

#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

/** Registry lookup that also accepts snake_case ("dir1_nb"). */
SchemeSpec
parseSchemeArg(const std::string &arg)
{
    std::string compact;
    for (const char c : arg) {
        if (c != '_' && c != '-')
            compact.push_back(c);
    }
    return parseScheme(compact);
}

/** The block operand: decimal, or hex after "0x". */
BlockNum
parseBlock(const std::string &arg)
{
    if (!arg.starts_with("0x"))
        return parseDecimal(arg, "<block>");
    BlockNum block = 0;
    const char *end = arg.data() + arg.size();
    const auto [stop, error] =
        std::from_chars(arg.data() + 2, end, block, 16);
    fatalIf(error != std::errc{} || stop != end,
            "<block> '", arg, "' is not a block number");
    return block;
}

/**
 * The block to follow when none is named: the most lock-written
 * block (the contended spin lock), falling back to the most written
 * block for lock-free traces.
 */
BlockNum
hottestBlock(const Trace &trace, unsigned block_bytes)
{
    std::map<BlockNum, std::uint64_t> lock_writes;
    std::map<BlockNum, std::uint64_t> writes;
    for (const TraceRecord &record : trace) {
        if (!record.isWrite())
            continue;
        const BlockNum block =
            blockNumber(record.addr, block_bytes);
        ++writes[block];
        if (record.isLockRef())
            ++lock_writes[block];
    }
    fatalIf(writes.empty(), "trace '", trace.name(),
            "' has no data writes to follow");
    const auto &pool = lock_writes.empty() ? writes : lock_writes;
    BlockNum best = pool.begin()->first;
    std::uint64_t best_count = 0;
    for (const auto &[block, count] : pool) {
        if (count > best_count) {
            best = block;
            best_count = count;
        }
    }
    return best;
}

/** "rd_miss(1st)" — event key plus a first-reference marker. */
std::string
eventLabel(const ProtocolTraceEvent &event)
{
    std::string label = eventKey(event.type);
    if (event.firstRef)
        label += "(1st)";
    return label;
}

/** "inval:2 wrt_back:1" — the nonzero bus ops of one transition. */
std::string
opsLabel(const OpCounts &ops)
{
    std::string label;
    for (const auto &[name, member] : opFields()) {
        if (ops.*member == 0)
            continue;
        if (!label.empty())
            label += ' ';
        label += name;
        label += ':';
        label += std::to_string(ops.*member);
    }
    return label.empty() ? "-" : label;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: " << argv[0]
                  << " <scheme> [workload|trace-file] [block|auto]"
                     " [refs] [seed]\n";
        return 1;
    }
    const std::string scheme_arg = argv[1];
    const std::string input = argc > 2 ? argv[2] : "pops";
    const std::string block_arg = argc > 3 ? argv[3] : "auto";

    try {
        const std::uint64_t refs =
            argc > 4 ? parseDecimal(argv[4], "<refs>") : 200'000;
        const std::uint64_t seed =
            argc > 5 ? parseDecimal(argv[5], "<seed>") : 1;
        const SchemeSpec scheme = parseSchemeArg(scheme_arg);
        const Trace trace = std::ifstream(input).good()
            ? readTraceFile(input)
            : generateTrace(input, refs, seed);

        SimConfig sim = SimConfig::fromEnvironment();
        const BlockNum block = block_arg == "auto"
            ? hottestBlock(trace, sim.blockBytes)
            : parseBlock(block_arg);

        // Sample every reference and keep a deep ring: the point is
        // a complete narrative for one block, not low overhead.
        TracerConfig tracer_config;
        tracer_config.samplePeriod = 1;
        tracer_config.ringCapacity = std::size_t{1} << 16;
        EventTracer tracer(tracer_config);
        auto session =
            tracer.session(scheme.name(), trace.name(), block);
        sim.traceSink = session.get();

        const SimResult result = simulateTrace(trace, scheme, sim);
        session.reset(); // merge the session into the tracer

        std::cout << "=== " << scheme.name() << " on "
                  << trace.name() << ", block " << block << " ===\n";

        fatalIf(tracer.timelines().empty(),
                "tracer produced no timeline");
        const CellTimeline &timeline = tracer.timelines().front();
        if (timeline.events.empty()) {
            std::cout << "block " << block
                      << " is never referenced; try 'auto' or "
                         "another block\n";
            return 0;
        }
        if (timeline.dropped > 0)
            std::cout << "(ring overflowed: the first "
                      << timeline.dropped
                      << " events were dropped)\n";

        TextTable table({"ref", "cache", "event", "state", "others",
                         "bus ops", "cycles"});
        for (const ProtocolTraceEvent &event : timeline.events) {
            const CycleBreakdown cost =
                costFromOps(event.ops, 1, paperPipelinedCosts());
            table.addRow({
                TextTable::grouped(event.ref),
                std::to_string(event.cache),
                eventLabel(event),
                std::to_string(
                    static_cast<unsigned>(event.stateBefore))
                    + "->"
                    + std::to_string(
                        static_cast<unsigned>(event.stateAfter)),
                std::to_string(event.othersBefore) + "->"
                    + std::to_string(event.othersAfter),
                opsLabel(event.ops),
                TextTable::fixed(cost.total(), 1),
            });
        }
        table.print(std::cout);

        std::cout << '\n'
                  << timeline.events.size() << " events on block "
                  << block << " out of "
                  << TextTable::grouped(result.totalRefs)
                  << " total references; whole-run cost "
                  << TextTable::fixed(
                         result.cost(paperPipelinedCosts()).total(),
                         4)
                  << " bus cycles/ref (pipelined)\n";
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
