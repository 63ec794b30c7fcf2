/** @file Behavioural tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"
#include "trace/format.hh"
#include "trace/trace_stats.hh"
#include "tracegen/address_space.hh"
#include "tracegen/generator.hh"
#include "tracegen/scheduler.hh"

namespace dirsim
{
namespace
{

constexpr std::uint64_t testRefs = 120'000;

TEST(GeneratorTest, DeterministicForSameSeed)
{
    const Trace a = generateTrace("pops", 30'000, 99);
    const Trace b = generateTrace("pops", 30'000, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "record " << i;
}

TEST(GeneratorTest, DifferentSeedsDiffer)
{
    const Trace a = generateTrace("pops", 30'000, 1);
    const Trace b = generateTrace("pops", 30'000, 2);
    ASSERT_EQ(a.name(), b.name());
    std::size_t differing = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        differing += a[i] == b[i] ? 0 : 1;
    EXPECT_GT(differing, n / 2);
}

TEST(GeneratorTest, ReachesTargetLength)
{
    const Trace trace = generateTrace("pero", 50'000, 3);
    EXPECT_GE(trace.size(), 50'000u);
    // Overshoot is bounded by one scheduler round.
    EXPECT_LT(trace.size(), 51'000u);
}

TEST(GeneratorTest, EmptyTargetRejected)
{
    EXPECT_THROW(generateTrace("pops", 0, 1), UsageError);
}

TEST(GeneratorTest, CpuFieldsWithinDeclaredRange)
{
    const Trace trace = generateTrace("thor", testRefs, 4);
    for (const auto &record : trace)
        ASSERT_LT(record.cpu, trace.numCpus());
}

TEST(GeneratorTest, ProcessCountMatchesProfile)
{
    const Trace trace = generateTrace("pops", testRefs, 5);
    EXPECT_EQ(trace.countProcesses(), popsProfile().numProcesses);
}

class WorkloadMix : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadMix, ReferenceMixInPaperBand)
{
    const Trace trace = generateTrace(GetParam(), testRefs, 11);
    const TraceStats stats = computeTraceStats(trace);
    const double instr_frac =
        static_cast<double>(stats.instr) / stats.refs;
    const double read_frac =
        static_cast<double>(stats.dataReads) / stats.refs;
    const double write_frac =
        static_cast<double>(stats.dataWrites) / stats.refs;

    // Table 3 band: roughly half instructions, 35-45% reads, and a
    // clearly read-dominated write share.
    EXPECT_GT(instr_frac, 0.42) << GetParam();
    EXPECT_LT(instr_frac, 0.58) << GetParam();
    EXPECT_GT(read_frac, 0.33) << GetParam();
    EXPECT_LT(read_frac, 0.48) << GetParam();
    EXPECT_GT(write_frac, 0.05) << GetParam();
    EXPECT_LT(write_frac, 0.15) << GetParam();
    EXPECT_GT(stats.readWriteRatio(), 3.0) << GetParam();
}

TEST_P(WorkloadMix, SystemFractionRoughlyTenPercent)
{
    const Trace trace = generateTrace(GetParam(), testRefs, 13);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_GT(stats.systemFraction(), 0.05) << GetParam();
    EXPECT_LT(stats.systemFraction(), 0.16) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadMix,
                         ::testing::Values("pops", "thor", "pero"));

TEST(GeneratorTest, PopsAndThorAreSpinHeavy)
{
    for (const char *name : {"pops", "thor"}) {
        const Trace trace = generateTrace(name, testRefs, 17);
        const TraceStats stats = computeTraceStats(trace);
        // "Roughly one-third of all the reads correspond to reads due
        // to spinning on a lock" (Section 4.4).
        EXPECT_GT(stats.spinReadFraction(), 0.15) << name;
        EXPECT_LT(stats.spinReadFraction(), 0.50) << name;
    }
}

TEST(GeneratorTest, PeroHasFewLockRefs)
{
    const Trace trace = generateTrace("pero", testRefs, 17);
    const TraceStats stats = computeTraceStats(trace);
    EXPECT_LT(stats.spinReadFraction(), 0.05);
}

TEST(GeneratorTest, PeroSharesLessThanPopsAndThor)
{
    const auto shared_frac = [](const char *name) {
        const Trace trace = generateTrace(name, testRefs, 19);
        return computeTraceStats(trace).sharedBlockFraction();
    };
    const double pero = shared_frac("pero");
    EXPECT_LT(pero, shared_frac("pops"));
    EXPECT_LT(pero, shared_frac("thor"));
}

TEST(GeneratorTest, SpinFlagsAgreeWithDetector)
{
    // The generator's lock-spin metadata must look like spins to a
    // metadata-free detector: almost every flagged read belongs to a
    // detected same-process read run on the same word.
    const Trace trace = generateTrace("pops", testRefs, 23);
    const auto detected = detectSpinReads(trace, 2);
    std::uint64_t flagged = 0;
    std::uint64_t agree = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].isLockSpin() && trace[i].isRead()) {
            ++flagged;
            agree += detected[i] ? 1 : 0;
        }
    }
    ASSERT_GT(flagged, 0u);
    // Singleton tests (lock observed free on the first try) are not
    // runs, so agreement below 100% is expected.
    EXPECT_GT(static_cast<double>(agree) / flagged, 0.70);
}

TEST(GeneratorTest, LockWritesComeInAcquireReleasePairs)
{
    // Causality: for each lock word, writes alternate acquire/release
    // by the same process (a process never releases a lock it did not
    // acquire, and no one acquires a held lock).
    const Trace trace = generateTrace("pops", testRefs, 29);
    std::unordered_map<Addr, ProcId> holder;
    std::unordered_map<Addr, bool> held;
    for (const auto &record : trace) {
        if (!record.isLockWrite())
            continue;
        const bool is_held = held[record.addr];
        if (!is_held) {
            holder[record.addr] = record.pid;
            held[record.addr] = true;
        } else {
            ASSERT_EQ(holder[record.addr], record.pid)
                << "release by a non-holder";
            held[record.addr] = false;
        }
    }
}

TEST(GeneratorTest, LockAddressesLiveInLockSegment)
{
    const Trace trace = generateTrace("thor", testRefs, 31);
    for (const auto &record : trace) {
        if (record.isLockRef()) {
            ASSERT_GE(record.addr, AddressSpace::lockBase);
            ASSERT_LT(record.addr, AddressSpace::mailboxBase);
        }
    }
}

TEST(GeneratorTest, SystemRefsUseKernelAddresses)
{
    const Trace trace = generateTrace("pops", testRefs, 37);
    for (const auto &record : trace) {
        if (record.isSystem()) {
            ASSERT_GE(record.addr, AddressSpace::kernelCodeBase);
        }
    }
}

TEST(GeneratorTest, InstructionAddressesInCodeSegments)
{
    const Trace trace = generateTrace("pops", testRefs, 41);
    for (const auto &record : trace) {
        if (!record.isInstr())
            continue;
        const bool user_code =
            record.addr >= AddressSpace::codeBase
            && record.addr < AddressSpace::privateBase;
        const bool kernel_code =
            record.addr >= AddressSpace::kernelCodeBase
            && record.addr < AddressSpace::kernelDataBase;
        ASSERT_TRUE(user_code || kernel_code);
    }
}

/** FNV-1a 64 over a trace, field by field in little-endian order. */
std::uint64_t
traceDigest(const Trace &trace)
{
    traceformat::Fnv64 fnv;
    fnv.update(trace.name().data(), trace.name().size());
    const auto add = [&fnv](std::uint64_t value) {
        unsigned char bytes[8];
        traceformat::encodeLe(bytes, value);
        fnv.update(bytes, sizeof bytes);
    };
    add(trace.numCpus());
    for (const TraceRecord &record : trace) {
        add(record.addr);
        add(record.pid);
        add(record.cpu);
        add(static_cast<std::uint64_t>(record.type));
        add(record.flags);
    }
    return fnv.value();
}

constexpr const char *outputChanged =
    "tracegen output changed: bump tracegenVersion and update these "
    "digests";

// Cell-cache entries of generated traces are keyed by recipe, not by
// content, so these digests pin what each kind of recipe generates at
// the current tracegenVersion: a named profile at its own size, one
// widened to more caches, and the scale family.

TEST(GeneratorTest, PaperProfileOutputIsPinned)
{
    EXPECT_EQ(traceDigest(TraceRecipe{"pops", 0, 20'000, 7}.generate()),
              0x25568d3e5e23b65full)
        << outputChanged;
    EXPECT_EQ(traceDigest(TraceRecipe{"thor", 0, 20'000, 7}.generate()),
              0x32a1a754b6f3b0f3ull)
        << outputChanged;
    EXPECT_EQ(traceDigest(TraceRecipe{"pero", 0, 20'000, 7}.generate()),
              0xc0f8bc1606f9e5f9ull)
        << outputChanged;
}

TEST(GeneratorTest, WidenedProfileOutputIsPinned)
{
    EXPECT_EQ(traceDigest(TraceRecipe{"pops", 8, 20'000, 7}.generate()),
              0x31f03a0d76b1a97aull)
        << outputChanged;
}

TEST(GeneratorTest, ScalingProfileOutputIsPinned)
{
    EXPECT_EQ(traceDigest(TraceRecipe{"scale", 64, 20'000, 7}.generate()),
              0xbce7f93a83eaf4c6ull)
        << outputChanged;
}

TEST(GeneratorTest, RecipeChecksumCoversEveryIngredient)
{
    const std::uint64_t base = TraceRecipe{"pops", 0, 20'000, 7}.checksum();
    const std::string text =
        "tracegen v" + std::to_string(tracegenVersion) + "|pops|0|20000|7";
    traceformat::Fnv64 fnv;
    fnv.update(text.data(), text.size());
    EXPECT_EQ(base, fnv.value());

    EXPECT_NE(base, (TraceRecipe{"thor", 0, 20'000, 7}.checksum()));
    EXPECT_NE(base, (TraceRecipe{"pops", 8, 20'000, 7}.checksum()));
    EXPECT_NE(base, (TraceRecipe{"pops", 0, 20'001, 7}.checksum()));
    EXPECT_NE(base, (TraceRecipe{"pops", 0, 20'000, 8}.checksum()));
    // The text is delimited: shifting digits between fields changes it.
    EXPECT_NE((TraceRecipe{"pops", 1, 12, 3}.checksum()),
              (TraceRecipe{"pops", 11, 2, 3}.checksum()));
}

TEST(SchedulerTest, MigrationMovesProcessesBetweenCpus)
{
    WorkloadProfile profile = popsProfile();
    profile.numProcesses = 4; // fully loaded: swap-based migration
    profile.migrationProb = 0.2;
    TraceScheduler scheduler(profile, 43);
    const Trace trace = scheduler.generate(60'000);
    EXPECT_GT(scheduler.migrations(), 0u);

    // Some process must appear on more than one CPU.
    std::unordered_map<ProcId, std::unordered_set<CpuId>> cpus;
    for (const auto &record : trace)
        cpus[record.pid].insert(record.cpu);
    bool migrated = false;
    for (const auto &[pid, set] : cpus)
        migrated |= set.size() > 1;
    EXPECT_TRUE(migrated);
}

TEST(SchedulerTest, NoMigrationWhenDisabled)
{
    WorkloadProfile profile = popsProfile();
    profile.numProcesses = 4;
    profile.migrationProb = 0.0;
    TraceScheduler scheduler(profile, 47);
    const Trace trace = scheduler.generate(40'000);
    EXPECT_EQ(scheduler.migrations(), 0u);
    std::unordered_map<ProcId, std::unordered_set<CpuId>> cpus;
    for (const auto &record : trace)
        cpus[record.pid].insert(record.cpu);
    for (const auto &[pid, set] : cpus)
        EXPECT_EQ(set.size(), 1u);
}

TEST(SchedulerTest, MoreProcessesThanCpusAllRun)
{
    WorkloadProfile profile = peroProfile();
    profile.numProcesses = 7;
    TraceScheduler scheduler(profile, 53);
    const Trace trace = scheduler.generate(80'000);
    EXPECT_EQ(trace.countProcesses(), 7u);
    EXPECT_LE(trace.observedCpus(), profile.numCpus);
}

TEST(SchedulerTest, DiagnosticsCountHandoffsAndSpins)
{
    TraceScheduler scheduler(popsProfile(), 59);
    scheduler.generate(80'000);
    EXPECT_GT(scheduler.lockHandoffs(), 0u);
    EXPECT_GT(scheduler.spinReads(), 0u);
}

} // namespace
} // namespace dirsim
