/**
 * @file
 * Tests for the scaling suite (sim/scaling.hh) and the N-CPU
 * tracegen knobs it rides on: determinism, u16 cpu-id plumbing, the
 * sharing-degree and migration-rate knobs actually moving measured
 * distributions, and a small-N scheme-grid smoke cell with the
 * invariant checker on.
 */

#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/tracer.hh"
#include "sim/runner.hh"
#include "sim/scaling.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"
#include "tracegen/scheduler.hh"

namespace dirsim
{
namespace
{

/** Small, fast parameters for unit-test sweeps. */
ScalingParams
tinyParams()
{
    ScalingParams params;
    params.refsPerTrace = 30'000;
    params.seed = 11;
    params.clusterProcs = 4;
    return params;
}

TEST(ScalingProfileTest, ShapeAndNames)
{
    const WorkloadProfile profile = scalingProfile(64, tinyParams());
    EXPECT_EQ(profile.name, "scale64");
    EXPECT_EQ(profile.numCpus, 64u);
    // Fully loaded: the ready queue stays empty, so the migration
    // knob is the only way processes move between CPUs.
    EXPECT_EQ(profile.numProcesses, 64u);
    EXPECT_EQ(profile.sharingClusterProcs, 4u);
    EXPECT_EQ(profile.numClusters(), 16u);
    EXPECT_THROW(scalingProfile(0), UsageError);
}

TEST(ScalingProfileTest, RejectsCpusBeyondTraceFormatU16)
{
    // The trace binary format stores cpu ids as u16; the profile
    // check must refuse machines that cannot round-trip.
    EXPECT_THROW(generateTrace(scalingProfile(70'000, tinyParams()),
                               100, 1),
                 UsageError);
}

TEST(ScalingTraceTest, DeterministicUnderFixedSeed)
{
    const ScalingParams params = tinyParams();
    const Trace a = scalingTrace(24, params);
    const Trace b = scalingTrace(24, params);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a[i] == b[i]) << "record " << i;

    // A different base seed moves the stream.
    ScalingParams reseeded = params;
    reseeded.seed = params.seed + 1;
    const Trace c = scalingTrace(24, reseeded);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = !(a[i] == c[i]);
    EXPECT_TRUE(differs);
}

TEST(ScalingTraceTest, CpuIdsStayInDomainAtNon4Sizes)
{
    for (const unsigned n : {6u, 300u}) {
        ScalingParams params = tinyParams();
        params.refsPerTrace = 20'000;
        const Trace trace = scalingTrace(n, params);
        EXPECT_EQ(trace.numCpus(), n);
        EXPECT_LE(trace.observedCpus(), n);
        // Pids are offset by 100 (scheduler convention); the machine
        // still needs exactly N caches under ByProcess sharing.
        for (const auto &record : trace) {
            ASSERT_LT(record.cpu, n);
            ASSERT_GE(record.pid, 100u);
            ASSERT_LT(record.pid, 100u + n);
        }
        EXPECT_EQ(trace.countProcesses(), n);
    }
}

TEST(ScalingKnobsTest, ClusterKnobBoundsSharingDegree)
{
    // At N=16, clustered sharing (4 processes per cluster) must show
    // fewer holders at clean-block writes than machine-global
    // sharing — that is the knob's whole point.
    ScalingParams clustered = tinyParams();
    clustered.refsPerTrace = 80'000;
    ScalingParams global = clustered;
    global.clusterProcs = 0; // legacy: one machine-wide pool

    const SimResult with_clusters = simulateTrace(
        scalingTrace(16, clustered), parseScheme("DirNNB"));
    const SimResult without = simulateTrace(
        scalingTrace(16, global), parseScheme("DirNNB"));

    ASSERT_GT(with_clusters.cleanWriteHolders.samples(), 0u);
    ASSERT_GT(without.cleanWriteHolders.samples(), 0u);
    EXPECT_LT(with_clusters.cleanWriteHolders.mean(),
              without.cleanWriteHolders.mean());

    // Kernel hot words stay machine-global, so the clustered run
    // still has a widely-shared tail beyond its own cluster: the
    // histogram counts *other* holders, so >= clusterProcs of them
    // means more total copies than one cluster can produce.
    EXPECT_GE(with_clusters.cleanWriteHolders.maxValue(),
              clustered.clusterProcs);
}

TEST(ScalingKnobsTest, MigrationKnobMovesProcesses)
{
    ScalingParams params = tinyParams();
    params.migrationProb = 0.02;
    TraceScheduler moving(scalingProfile(8, params), 5);
    moving.generate(40'000);
    EXPECT_GT(moving.migrations(), 0u);

    params.migrationProb = 0.0;
    TraceScheduler pinned(scalingProfile(8, params), 5);
    const Trace trace = pinned.generate(40'000);
    EXPECT_EQ(pinned.migrations(), 0u);
    std::unordered_map<ProcId, std::unordered_set<CpuId>> cpus;
    for (const auto &record : trace)
        cpus[record.pid].insert(record.cpu);
    for (const auto &[pid, set] : cpus)
        EXPECT_EQ(set.size(), 1u) << pid;
}

TEST(ScalingSuiteTest, SchemesAndTraces)
{
    const std::vector<SchemeSpec> schemes = scalingSchemes();
    ASSERT_GE(schemes.size(), 6u);
    EXPECT_EQ(schemes.front().name(), "Dir0B");
    EXPECT_EQ(schemes.back().name(), "DirNNB");
    bool has_region_cv = false;
    for (const SchemeSpec &spec : schemes) {
        has_region_cv |= spec.name() == "DirCVr12";
        // Round-trip: cell identities survive artifact files.
        EXPECT_EQ(parseScheme(spec.name()), spec);
    }
    EXPECT_TRUE(has_region_cv);

    ScalingParams params = tinyParams();
    params.refsPerTrace = 5'000;
    EXPECT_EQ(scalingTrace(4, params).name(), "scale4");
    const Trace six = scalingTrace(6, params);
    EXPECT_EQ(six.name(), "scale6");
    EXPECT_EQ(six.numCpus(), 6u);
}

TEST(ScalingSuiteTest, EnvironmentOverridesParse)
{
    ::setenv("DIRSIM_SCALING_NS", "4,64,1022", 1);
    ::setenv("DIRSIM_SCALING_REFS", "1234", 1);
    ::setenv("DIRSIM_SCALING_SEED", "99", 1);
    ::setenv("DIRSIM_SCALING_CLUSTER", "8", 1);
    const ScalingParams params = ScalingParams::fromEnvironment();
    EXPECT_EQ(params.cacheCounts,
              (std::vector<unsigned>{4, 64, 1022}));
    EXPECT_EQ(params.refsPerTrace, 1234u);
    EXPECT_EQ(params.seed, 99u);
    EXPECT_EQ(params.clusterProcs, 8u);

    ::setenv("DIRSIM_SCALING_NS", "4,,8", 1);
    EXPECT_THROW(ScalingParams::fromEnvironment(), UsageError);
    ::setenv("DIRSIM_SCALING_NS", "0", 1);
    EXPECT_THROW(ScalingParams::fromEnvironment(), UsageError);
    ::setenv("DIRSIM_SCALING_NS", "65536", 1);
    EXPECT_THROW(ScalingParams::fromEnvironment(), UsageError);
    ::setenv("DIRSIM_SCALING_NS", "4,99999999999999999999", 1);
    EXPECT_THROW(ScalingParams::fromEnvironment(), UsageError);
    ::unsetenv("DIRSIM_SCALING_NS");
    ::unsetenv("DIRSIM_SCALING_REFS");
    ::unsetenv("DIRSIM_SCALING_SEED");
    ::unsetenv("DIRSIM_SCALING_CLUSTER");
}

TEST(ScalingSmokeTest, SmallNGridRunsCleanWithInvariantsOn)
{
    // The tier-1 smoke cell of the N=1024 sanitizer sweep: the whole
    // scheme grid at N=6 (odd geometry, every DirCVr12 entry is one
    // clipped region) with the coherence invariant checker and the
    // tracer attached.
    ScalingParams params = tinyParams();
    params.refsPerTrace = 20'000;
    const Trace trace = scalingTrace(6, params);

    SimConfig sim;
    sim.invariantCheckPeriod = 500;

    EventTracer tracer(TracerConfig{256, 128});
    RunnerConfig config;
    config.jobs = 2;
    config.makeCellTraceSink =
        [&tracer](const std::string &scheme,
                  const std::string &trace_name) {
            return tracer.session(scheme, trace_name);
        };
    const ExperimentRunner runner(std::move(config));
    const GridResult grid =
        runner.run(scalingSchemes(), {trace}, sim);

    ASSERT_EQ(grid.schemes.size(), scalingSchemes().size());
    for (const SchemeResults &scheme : grid.schemes) {
        ASSERT_EQ(scheme.perTrace.size(), 1u);
        EXPECT_EQ(scheme.perTrace[0].numCaches, 6u);
        EXPECT_EQ(scheme.perTrace[0].totalRefs, trace.size());
    }
    EXPECT_GT(tracer.writeRunLengths().samples(), 0u);
}

} // namespace
} // namespace dirsim
