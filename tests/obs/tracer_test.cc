/** @file Unit tests for obs/tracer.hh and obs/chrome_trace.hh. */

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "sim/suite.hh"
#include "test_util.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

Trace
benchTrace()
{
    return generateTrace("pops", 30'000, 3);
}

/** Simulate @p trace under @p scheme with a fresh tracer session. */
SimResult
tracedRun(EventTracer &tracer, const Trace &trace,
          const std::string &scheme,
          std::optional<BlockNum> block = std::nullopt)
{
    auto session = tracer.session(scheme, trace.name(), block);
    SimConfig sim;
    sim.traceSink = session.get();
    return simulateTrace(trace, parseScheme(scheme), sim);
    // session merges into the tracer on destruction
}

TEST(TracerConfigTest, FromEnvironmentReadsOverrides)
{
    ::unsetenv("DIRSIM_TRACE_SAMPLE");
    ::unsetenv("DIRSIM_TRACE_RING");
    const TracerConfig defaults = TracerConfig::fromEnvironment();
    EXPECT_EQ(defaults.samplePeriod, 0u);
    EXPECT_FALSE(defaults.enabled());
    EXPECT_EQ(defaults.ringCapacity, 4096u);

    ::setenv("DIRSIM_TRACE_SAMPLE", "16", 1);
    ::setenv("DIRSIM_TRACE_RING", "128", 1);
    const TracerConfig overridden = TracerConfig::fromEnvironment();
    EXPECT_EQ(overridden.samplePeriod, 16u);
    EXPECT_TRUE(overridden.enabled());
    EXPECT_EQ(overridden.ringCapacity, 128u);
    ::unsetenv("DIRSIM_TRACE_SAMPLE");
    ::unsetenv("DIRSIM_TRACE_RING");
}

TEST(EventTracerTest, TracedRunIsBitIdenticalToUntraced)
{
    const Trace trace = benchTrace();
    const SimResult plain = simulateTrace(trace, parseScheme("Dir1NB"));

    for (const unsigned period : {1u, 7u}) {
        TracerConfig config;
        config.samplePeriod = period;
        EventTracer tracer(config);
        const SimResult traced =
            tracedRun(tracer, trace, "Dir1NB");
        EXPECT_EQ(traced.events, plain.events) << period;
        EXPECT_EQ(traced.ops, plain.ops) << period;
        EXPECT_EQ(traced.cleanWriteHolders, plain.cleanWriteHolders)
            << period;
        EXPECT_EQ(traced.totalRefs, plain.totalRefs) << period;
        EXPECT_GT(tracer.emittedEvents(), 0u) << period;
    }
}

TEST(EventTracerTest, SamplingThinsTheTimelineOnly)
{
    const Trace trace = benchTrace();
    TracerConfig every;
    every.samplePeriod = 1;
    every.ringCapacity = std::size_t{1} << 20;
    EventTracer dense(every);
    tracedRun(dense, trace, "Dir0B");

    TracerConfig tenth = every;
    tenth.samplePeriod = 10;
    EventTracer sparse(tenth);
    tracedRun(sparse, trace, "Dir0B");

    // The timeline thins with the period...
    EXPECT_EQ(sparse.emittedEvents(), dense.emittedEvents() / 10);
    // ...but the write-run distribution stays exact (fed off-sample).
    EXPECT_GT(dense.writeRunLengths().samples(), 0u);
    EXPECT_EQ(sparse.writeRunLengths(), dense.writeRunLengths());
}

TEST(EventTracerTest, RingKeepsMostRecentAndCountsDrops)
{
    const Trace trace = benchTrace();
    TracerConfig config;
    config.samplePeriod = 1;
    config.ringCapacity = 8;
    EventTracer tracer(config);
    tracedRun(tracer, trace, "WTI");

    ASSERT_EQ(tracer.timelines().size(), 1u);
    const CellTimeline &timeline = tracer.timelines().front();
    EXPECT_EQ(timeline.events.size(), 8u);
    EXPECT_EQ(timeline.dropped, tracer.emittedEvents() - 8);
    // Survivors are the newest events, still in emission order.
    std::uint64_t last = 0;
    for (const ProtocolTraceEvent &event : timeline.events) {
        EXPECT_GT(event.ref, last);
        last = event.ref;
    }
}

TEST(EventTracerTest, BlockFilterNarrowsTimelineNotHistograms)
{
    const Trace trace = benchTrace();
    TracerConfig config;
    config.samplePeriod = 1;
    EventTracer unfiltered(config);
    tracedRun(unfiltered, trace, "Dir1NB");
    ASSERT_FALSE(unfiltered.timelines().empty());
    const BlockNum block =
        unfiltered.timelines().front().events.front().block;

    EventTracer filtered(config);
    tracedRun(filtered, trace, "Dir1NB", block);
    ASSERT_EQ(filtered.timelines().size(), 1u);
    const CellTimeline &timeline = filtered.timelines().front();
    ASSERT_FALSE(timeline.events.empty());
    for (const ProtocolTraceEvent &event : timeline.events)
        EXPECT_EQ(event.block, block);
    EXPECT_LT(timeline.events.size() + timeline.dropped,
              unfiltered.emittedEvents());
    // The histogram is exact regardless of the timeline filter.
    EXPECT_EQ(filtered.writeRunLengths(),
              unfiltered.writeRunLengths());
}

TEST(EventTracerTest, WriteRunLengthsFollowWriterHandoffs)
{
    using test::read;
    using test::write;
    Trace trace;
    trace.setName("runs");
    // One block: pid 0 writes 3x, pid 1 takes over for 2 writes,
    // then a read ends pid 1's run. Expect runs of length 3 and 2.
    trace.append(write(0, 0));
    trace.append(write(0, 0));
    trace.append(write(0, 0));
    trace.append(write(1, 0));
    trace.append(write(1, 0));
    trace.append(read(0, 0));

    TracerConfig config;
    config.samplePeriod = 1;
    EventTracer tracer(config);
    tracedRun(tracer, trace, "Dir1NB");

    const Histogram &runs = tracer.writeRunLengths();
    EXPECT_EQ(runs.samples(), 2u);
    EXPECT_EQ(runs.count(3), 1u);
    EXPECT_EQ(runs.count(2), 1u);
}

TEST(EventTracerTest, OpenRunsFlushOnSessionClose)
{
    using test::write;
    Trace trace;
    trace.setName("open-run");
    trace.append(write(0, 0));
    trace.append(write(0, 0));
    trace.append(write(1, 64)); // different block, still open

    TracerConfig config;
    config.samplePeriod = 1;
    EventTracer tracer(config);
    tracedRun(tracer, trace, "Dir0B");

    const Histogram &runs = tracer.writeRunLengths();
    EXPECT_EQ(runs.samples(), 2u);
    EXPECT_EQ(runs.count(2), 1u);
    EXPECT_EQ(runs.count(1), 1u);
}

TEST(EventTracerTest, LongWriteRunsExportAsOverflow)
{
    using test::read;
    using test::write;
    Trace trace;
    trace.setName("long-run");
    // One run of 70 writes and one of 63, each ended by a read.
    for (int i = 0; i < 70; ++i)
        trace.append(write(0, 0));
    trace.append(read(1, 0));
    for (int i = 0; i < 63; ++i)
        trace.append(write(0, 64));
    trace.append(read(1, 64));

    TracerConfig config;
    config.samplePeriod = 1;
    EventTracer tracer(config);
    tracedRun(tracer, trace, "Dir1NB");

    MetricRegistry metrics;
    tracer.exportMetrics(metrics);
    const std::string prefix = "trace.dist.write_run_length.";
    EXPECT_EQ(metrics.counter(prefix + "samples"), 2u);
    EXPECT_EQ(metrics.counter(prefix + "overflow"), 1u);
    EXPECT_EQ(metrics.counter(prefix + "63"), 1u);
    EXPECT_FALSE(metrics.has(prefix + "64"));
    EXPECT_FALSE(metrics.has(prefix + "70"));
}

TEST(EventTracerTest, ExportMetricsUsesTraceDistNamespace)
{
    const Trace trace = benchTrace();
    TracerConfig config;
    config.samplePeriod = 2;
    EventTracer tracer(config);
    tracedRun(tracer, trace, "Dir0B");

    MetricRegistry metrics;
    tracer.exportMetrics(metrics);
    ASSERT_TRUE(metrics.has("trace.dist.write_run_length.samples"));
    EXPECT_EQ(metrics.counter("trace.dist.write_run_length.samples"),
              tracer.writeRunLengths().samples());
    EXPECT_EQ(metrics.counter("trace.dist.write_run_length.1"),
              tracer.writeRunLengths().count(1));
    EXPECT_EQ(metrics.counter("trace.events.emitted"),
              tracer.emittedEvents());
    EXPECT_DOUBLE_EQ(metrics.gauge("trace.sample_period"), 2.0);
}

TEST(EventTracerTest, ParallelRunnerMergesOneTimelinePerCell)
{
    SuiteParams params;
    params.refsPerTrace = 20'000;
    params.seed = 5;
    const std::vector<Trace> traces = standardSuite(params);
    const std::vector<SchemeSpec> schemes =
        parseSchemes({"Dir1NB", "Dir0B"});

    RunnerConfig sequential;
    sequential.jobs = 1;
    const GridResult plain =
        ExperimentRunner(sequential).run(schemes, traces);

    TracerConfig tracer_config;
    tracer_config.samplePeriod = 3;
    EventTracer tracer(tracer_config);
    RunnerConfig config;
    config.jobs = 2;
    config.makeCellTraceSink = [&](const std::string &scheme,
                                   const std::string &trace) {
        return tracer.session(scheme, trace);
    };
    const GridResult traced =
        ExperimentRunner(config).run(schemes, traces);

    // Tracing under the parallel runner stays bit-identical.
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const SimResult &a = plain.schemes[s].perTrace[t];
            const SimResult &b = traced.schemes[s].perTrace[t];
            EXPECT_EQ(a.events, b.events);
            EXPECT_EQ(a.ops, b.ops);
            EXPECT_EQ(a.cleanWriteHolders, b.cleanWriteHolders);
        }
    }

    // Exactly one merged timeline per cell, each cell distinct.
    ASSERT_EQ(tracer.timelines().size(),
              schemes.size() * traces.size());
    std::set<std::string> cells;
    for (const CellTimeline &timeline : tracer.timelines())
        cells.insert(timeline.scheme + "/" + timeline.trace);
    EXPECT_EQ(cells.size(), schemes.size() * traces.size());
}

TEST(ChromeTraceTest, GridExportsOneLanePerWorker)
{
    SuiteParams params;
    params.refsPerTrace = 15'000;
    params.seed = 9;
    const std::vector<Trace> traces = standardSuite(params);
    const std::vector<SchemeSpec> schemes =
        parseSchemes({"Dir1NB", "WTI"});

    TracerConfig tracer_config;
    tracer_config.samplePeriod = 50;
    EventTracer tracer(tracer_config);
    RunnerConfig config;
    config.jobs = 2;
    config.makeCellTraceSink = [&](const std::string &scheme,
                                   const std::string &trace) {
        return tracer.session(scheme, trace);
    };
    const GridResult grid =
        ExperimentRunner(config).run(schemes, traces);

    std::ostringstream out;
    writeChromeTrace(out, grid, &tracer);
    const JsonValue json = JsonValue::parse(out.str());
    const auto &events = json.at("traceEvents").elements();
    ASSERT_FALSE(events.empty());

    std::set<std::uint64_t> cell_lanes;
    std::set<std::string> cell_names;
    std::size_t instants = 0;
    std::size_t phases = 0;
    for (const JsonValue &event : events) {
        const std::string &ph = event.at("ph").asString();
        if (ph == "i") {
            ++instants;
            continue;
        }
        if (ph != "X")
            continue;
        const std::string &cat = event.at("cat").asString();
        if (cat == "cell") {
            cell_lanes.insert(event.at("tid").asU64());
            cell_names.insert(event.at("name").asString());
        } else if (cat == "phase") {
            ++phases;
        }
    }
    // One lane per worker thread: at most `jobs`, never lane 0 (the
    // grid's own lane).
    EXPECT_GE(cell_lanes.size(), 1u);
    EXPECT_LE(cell_lanes.size(), 2u);
    EXPECT_FALSE(cell_lanes.contains(0));
    EXPECT_EQ(cell_names.size(), schemes.size() * traces.size());
    EXPECT_TRUE(cell_names.contains("Dir1NB/pops"));
    EXPECT_GT(instants, 0u);
    EXPECT_GT(phases, 0u);
}

TEST(ChromeTraceTest, SpanWriterBytesArePinned)
{
    // The exact document for a slice with args and an instant: the
    // grid export and the daemon's run trace both write through
    // ChromeSpanWriter.
    const std::vector<TraceSpan> spans{
        {"cell", "cell", 1, 3'500, 2'000'000, {{"refs", "42"}}},
        {"RdMiss", "protocol", 1, 4'000, 0, {}, true}};
    std::ostringstream all;
    writeChromeSpans(all, spans, 1'000, {"grid", "worker 1"});
    EXPECT_EQ(all.str(),
              R"({"displayTimeUnit":"ms","traceEvents":[)"
              R"({"name":"thread_name","ph":"M","pid":1,"tid":0,)"
              R"("args":{"name":"grid"}},)"
              R"({"name":"thread_name","ph":"M","pid":1,"tid":1,)"
              R"("args":{"name":"worker 1"}},)"
              R"({"name":"cell","cat":"cell","ph":"X","pid":1,"tid":1,)"
              R"("ts":2.5,"dur":2000,"args":{"refs":"42"}},)"
              R"({"name":"RdMiss","cat":"protocol","ph":"i","s":"t",)"
              R"("pid":1,"tid":1,"ts":3}]})"
              "\n");
}

TEST(ChromeTraceTest, FileWriterRejectsUnwritablePath)
{
    const GridResult grid;
    EXPECT_THROW(
        writeChromeTraceFile("/nonexistent-dir/x.json", grid),
        UsageError);
}

} // namespace
} // namespace dirsim
