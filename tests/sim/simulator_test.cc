/** @file Unit tests for sim/simulator.hh. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "protocols/registry.hh"
#include "sim/decoded.hh"
#include "test_util.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

using test::instr;
using test::makeTrace;
using test::read;
using test::rec;
using test::write;

TEST(SimulatorTest, CountsInstructions)
{
    const Trace trace = makeTrace({
        instr(100, 0x10),
        instr(100, 0x14),
        read(100, 0x1000),
    });
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    EXPECT_EQ(result.events.count(EventType::Instr), 2u);
    EXPECT_EQ(result.events.count(EventType::Read), 1u);
    EXPECT_EQ(result.totalRefs, 3u);
}

TEST(SimulatorTest, FirstReferenceExclusion)
{
    // The first reference to each block is flagged first-ref and
    // uncosted; a second process's access to the same block is not.
    const Trace trace = makeTrace({
        read(100, 0x1000),
        read(101, 0x1000),
        write(100, 0x2000),
        write(101, 0x2000),
    });
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    EXPECT_EQ(result.events.count(EventType::RmFirstRef), 1u);
    EXPECT_EQ(result.events.count(EventType::RdMiss), 1u);
    EXPECT_EQ(result.events.count(EventType::WmFirstRef), 1u);
    EXPECT_EQ(result.events.count(EventType::WrtMiss), 1u);
}

TEST(SimulatorTest, FirstRefTrackingIsBlockGrained)
{
    // Two words of the same block: only the very first touch is a
    // first reference; the same process then simply hits.
    const Trace trace = makeTrace({
        read(100, 0x1000),
        read(100, 0x100c),
    });
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    EXPECT_EQ(result.events.count(EventType::RmFirstRef), 1u);
    EXPECT_EQ(result.events.count(EventType::RdHit), 1u);
}

TEST(SimulatorTest, BlockSizeChangesGranularity)
{
    const Trace trace = makeTrace({
        read(100, 0x1000),
        read(100, 0x100c),
    });
    SimConfig config;
    config.blockBytes = 4;
    const SimResult result =
        simulateTrace(trace, parseScheme("Dir0B"), config);
    // With 4-byte blocks the second word is its own first reference.
    EXPECT_EQ(result.events.count(EventType::RmFirstRef), 2u);
}

TEST(SimulatorTest, ProcessSharingModelKeysCachesByPid)
{
    // Same pid on different CPUs: one cache, so the second access
    // hits (migration does not split a process's cache).
    const Trace trace = makeTrace({
        rec(0, 100, RefType::Read, 0x1000),
        rec(3, 100, RefType::Read, 0x1000),
    });
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    EXPECT_EQ(result.events.count(EventType::RdHit), 1u);
    EXPECT_EQ(result.numCaches, 1u);
}

TEST(SimulatorTest, ProcessorSharingModelKeysCachesByCpu)
{
    const Trace trace = makeTrace({
        rec(0, 100, RefType::Read, 0x1000),
        rec(3, 100, RefType::Read, 0x1000),
    });
    SimConfig config;
    config.sharing = SharingModel::ByProcessor;
    const SimResult result =
        simulateTrace(trace, parseScheme("Dir0B"), config);
    // Different CPUs: two caches, the second access is a miss.
    EXPECT_EQ(result.events.count(EventType::RdHit), 0u);
    EXPECT_EQ(result.events.count(EventType::RdMiss), 1u);
}

TEST(SimulatorTest, CachesNeededHelpers)
{
    const Trace trace = makeTrace({
        rec(0, 100, RefType::Read, 0x0),
        rec(1, 101, RefType::Read, 0x0),
        rec(2, 100, RefType::Read, 0x0),
    });
    EXPECT_EQ(cachesNeeded(trace, SharingModel::ByProcess), 2u);
    EXPECT_EQ(cachesNeeded(trace, SharingModel::ByProcessor), 3u);
}

TEST(SimulatorTest, UndersizedProtocolRejected)
{
    const Trace trace = makeTrace({
        read(100, 0x1000),
        read(101, 0x1000),
    });
    const DecodedTrace decoded = decodeTrace(trace, defaultBlockBytes,
                                             SharingModel::ByProcess);
    const auto protocol =
        makeProtocol(parseScheme("Dir0B"), 1, decoded.blockSpace());
    EXPECT_THROW(simulateTrace(decoded, *protocol, SimConfig{}),
                 UsageError);
}

TEST(SimulatorTest, EmptyTraceRejected)
{
    Trace empty("e", 4);
    EXPECT_THROW(simulateTrace(empty, parseScheme("Dir0B")), UsageError);
}

TEST(SimulatorTest, BadBlockSizeRejected)
{
    const Trace trace = makeTrace({read(100, 0x1000)});
    SimConfig config;
    config.blockBytes = 12;
    EXPECT_THROW(simulateTrace(trace, parseScheme("Dir0B"), config),
                 UsageError);
}

TEST(SimulatorTest, ResultMetadata)
{
    const Trace trace = generateTrace("pero", 20'000, 6);
    const SimResult result = simulateTrace(trace, parseScheme("Dragon"));
    EXPECT_EQ(result.scheme, "Dragon");
    EXPECT_EQ(result.traceName, "pero");
    EXPECT_EQ(result.totalRefs, trace.size());
    EXPECT_EQ(result.numCaches, trace.countProcesses());
}

TEST(SimulatorTest, InvariantCheckingPathRuns)
{
    const Trace trace = generateTrace("pops", 20'000, 7);
    SimConfig config;
    config.invariantCheckPeriod = 1'000;
    EXPECT_NO_THROW(simulateTrace(trace, parseScheme("Dir0B"), config));
}

TEST(SimulatorTest, InstructionsNeverTouchCoherenceState)
{
    // An instruction fetch from an address must not install the block
    // or mark it referenced.
    const Trace trace = makeTrace({
        instr(100, 0x1000),
        read(101, 0x1000),
    });
    const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
    EXPECT_EQ(result.events.count(EventType::RmFirstRef), 1u);
}

TEST(SimulatorTest, DeterministicResults)
{
    const Trace trace = generateTrace("thor", 30'000, 8);
    const SimResult a = simulateTrace(trace, parseScheme("Dir0B"));
    const SimResult b = simulateTrace(trace, parseScheme("Dir0B"));
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        EXPECT_EQ(a.events.count(event), b.events.count(event));
    }
    EXPECT_EQ(a.ops.busTransactions, b.ops.busTransactions);
}

TEST(SimulatorTest, WarmupDiscardsEarlyEvents)
{
    const Trace trace = generateTrace("pops", 40'000, 12);
    SimConfig cold;
    const SimResult full = simulateTrace(trace, parseScheme("Dir0B"), cold);

    SimConfig warmed;
    warmed.warmupRefs = trace.size() / 2;
    const SimResult tail = simulateTrace(trace, parseScheme("Dir0B"), warmed);

    EXPECT_LT(tail.totalRefs, full.totalRefs);
    EXPECT_NEAR(static_cast<double>(tail.totalRefs),
                static_cast<double>(full.totalRefs) / 2.0,
                static_cast<double>(full.totalRefs) * 0.02);
    EXPECT_LT(tail.events.count(EventType::RmFirstRef),
              full.events.count(EventType::RmFirstRef));
    EXPECT_LE(tail.ops.busTransactions, full.ops.busTransactions);
}

TEST(SimulatorTest, ZeroWarmupIsIdentity)
{
    const Trace trace = generateTrace("pero", 20'000, 13);
    SimConfig none;
    SimConfig zero;
    zero.warmupRefs = 0;
    const SimResult a = simulateTrace(trace, parseScheme("Dragon"), none);
    const SimResult b = simulateTrace(trace, parseScheme("Dragon"), zero);
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        EXPECT_EQ(a.events.count(event), b.events.count(event));
    }
}

TEST(SimulatorTest, WarmupLongerThanTraceRejected)
{
    const Trace trace = generateTrace("pero", 5'000, 14);
    SimConfig config;
    config.warmupRefs = trace.size() + 1;
    EXPECT_THROW(simulateTrace(trace, parseScheme("Dir0B"), config),
                 UsageError);
}

TEST(SimulatorTest, WarmupCostIsSteadyStateOrBetter)
{
    // Cold-sharing misses concentrate early, so the warmed-up cost
    // per reference must not exceed the whole-trace cost (for a
    // directory scheme on a lock-heavy workload).
    const Trace trace = generateTrace("pops", 60'000, 15);
    SimConfig cold;
    SimConfig warmed;
    warmed.warmupRefs = trace.size() / 4;
    const BusCosts costs = paperPipelinedCosts();
    const double full =
        simulateTrace(trace, parseScheme("Dir0B"), cold).cost(costs).total();
    const double tail =
        simulateTrace(trace, parseScheme("Dir0B"), warmed).cost(costs).total();
    EXPECT_LE(tail, full * 1.05);
}

TEST(SimulatorTest, SharingModelsAgreeWithoutMigration)
{
    // The paper found process- and processor-based statistics nearly
    // identical because migration is rare; with migration disabled
    // and one process per CPU they must be *exactly* identical.
    WorkloadProfile profile = popsProfile();
    profile.numProcesses = 4;
    profile.migrationProb = 0.0;
    const Trace trace = generateTrace(profile, 40'000, 9);

    SimConfig by_proc;
    SimConfig by_cpu;
    by_cpu.sharing = SharingModel::ByProcessor;
    const SimResult a = simulateTrace(trace, parseScheme("Dir0B"), by_proc);
    const SimResult b = simulateTrace(trace, parseScheme("Dir0B"), by_cpu);
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        EXPECT_EQ(a.events.count(event), b.events.count(event))
            << toString(event);
    }
}

} // namespace
} // namespace dirsim
