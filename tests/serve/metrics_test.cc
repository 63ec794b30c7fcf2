/**
 * @file
 * End-to-end tests for the daemon's telemetry surface: GET /status,
 * GET /metrics (held to the exposition linter, and cross-checked
 * against the /runs/{id}/events stream), GET /runs/{id}/trace, and
 * journal-backed restart recovery (serve/server.hh, obs/journal.hh,
 * obs/exposition.hh).
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "obs/exposition.hh"
#include "obs/journal.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace dirsim
{
namespace
{

namespace fs = std::filesystem;

const char *const kSpec =
    R"({"name":"telemetry","schemes":["Dir0B","WTI"],)"
    R"("traces":[{"profile":"pops","refs":20000,"seed":5}]})";

/** A started server that stops on scope exit. */
struct TestServer
{
    explicit TestServer(ServeConfig config = {})
        : server(std::move(config))
    {
        server.start();
    }
    ~TestServer() { server.stop(); }
    std::uint16_t
    port() const
    {
        return server.port();
    }
    SweepServer server;
};

/** Fresh per-test journal directory under the gtest temp root. */
std::string
freshJournalDir(const char *name)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "dirsim_serve_journal" / name;
    fs::remove_all(dir);
    return dir.string();
}

std::uint64_t
submit(std::uint16_t port, const std::string &spec)
{
    const HttpClientResponse response =
        httpRequest(port, "POST", "/runs", spec);
    EXPECT_EQ(response.status, 202) << response.body;
    return JsonValue::parse(response.body).at("id").asU64();
}

/** Stream a run's events to the end; returns (final state, progress
 *  event count). */
std::pair<std::string, std::size_t>
drainEvents(std::uint16_t port, std::uint64_t id)
{
    std::string final_state;
    std::size_t progress = 0;
    const int status = httpStreamLines(
        port, "/runs/" + std::to_string(id) + "/events",
        [&](const std::string &line) {
            const JsonValue json = JsonValue::parse(line);
            const std::string kind = json.at("kind").asString();
            if (kind == "state")
                final_state = json.at("state").asString();
            else if (kind == "progress")
                ++progress;
            return true;
        });
    EXPECT_EQ(status, 200);
    return {final_state, progress};
}

/**
 * The value of the sample line beginning exactly with
 * "<sample> " ("name" or "name{labels}"); fails the test when the
 * sample is absent.
 */
double
sampleValue(const std::string &exposition, const std::string &sample)
{
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.size() > sample.size() + 1
            && line.compare(0, sample.size(), sample) == 0
            && line[sample.size()] == ' ')
            return std::stod(line.substr(sample.size() + 1));
    }
    ADD_FAILURE() << "sample '" << sample
                  << "' not found in exposition:\n"
                  << exposition;
    return -1.0;
}

TEST(ServeTelemetryTest, StatusReportsOperationalDetail)
{
    ServeConfig config;
    config.journalDir = freshJournalDir("status");
    TestServer daemon(config);

    const HttpClientResponse response =
        httpRequest(daemon.port(), "GET", "/status");
    ASSERT_EQ(response.status, 200);
    const JsonValue json = JsonValue::parse(response.body);
    EXPECT_EQ(json.at("service").asString(), "dirsim_serve");
    EXPECT_EQ(json.at("queue_depth").asU64(), 0u);
    EXPECT_EQ(json.at("active_run").asU64(), 0u);
    EXPECT_GE(json.at("uptime_seconds").asDouble(), 0.0);
    EXPECT_EQ(json.at("runs").asU64(), 0u);
    const std::string journal = json.at("journal").asString();
    EXPECT_TRUE(journal.ends_with(RunJournal::fileName)) << journal;
}

TEST(ServeTelemetryTest, MetricsLintCleanAndAgreeWithEventStream)
{
    TestServer daemon;
    const std::uint64_t id = submit(daemon.port(), kSpec);
    const auto [state, progress_events] =
        drainEvents(daemon.port(), id);
    EXPECT_EQ(state, "done");
    EXPECT_EQ(progress_events, 2u); // 2 schemes x 1 trace

    const HttpClientResponse response =
        httpRequest(daemon.port(), "GET", "/metrics");
    ASSERT_EQ(response.status, 200);
    bool text_plain = false;
    for (const auto &[name, value] : response.headers)
        if (name == "content-type"
            && value.rfind("text/plain", 0) == 0)
            text_plain = true;
    EXPECT_TRUE(text_plain);
    const std::string &text = response.body;

    const std::vector<std::string> problems =
        lintPrometheusText(text);
    EXPECT_TRUE(problems.empty()) << problems[0] << "\n" << text;

    // The daemon's counters agree with what the event stream said:
    // every progress event is a completed cell, and exactly one run
    // was submitted (one POST /runs), dispatched (one queue-wait
    // sample), and finished "done".
    EXPECT_EQ(sampleValue(text, "dirsim_serve_cells_completed_total"),
              static_cast<double>(progress_events));
    EXPECT_EQ(sampleValue(text,
                          "dirsim_serve_runs{state=\"done\"}"),
              1.0);
    EXPECT_EQ(sampleValue(
                  text,
                  "dirsim_serve_requests_total{endpoint=\"/runs\","
                  "status=\"202\"}"),
              1.0);
    EXPECT_EQ(
        sampleValue(text,
                    "dirsim_serve_requests_total{endpoint="
                    "\"/runs/{id}/events\",status=\"200\"}"),
        1.0);
    EXPECT_EQ(sampleValue(text, "dirsim_serve_queue_wait_seconds_count"),
              1.0);
    EXPECT_EQ(
        sampleValue(text, "dirsim_serve_run_duration_seconds_count"),
        1.0);
    // The finished sweep's own registry is merged and re-exposed
    // under the dirsim_sweep prefix.
    EXPECT_EQ(sampleValue(text, "dirsim_sweep_sweep_cells_total"),
              static_cast<double>(progress_events));

    // A second scrape still lints clean and now counts the first.
    const HttpClientResponse again =
        httpRequest(daemon.port(), "GET", "/metrics");
    ASSERT_EQ(again.status, 200);
    EXPECT_GE(sampleValue(again.body,
                          "dirsim_serve_requests_total{endpoint="
                          "\"/metrics\",status=\"200\"}"),
              1.0);
}

/**
 * For one histogram family of an exposition, whatever its labels:
 * the `le` bound of the first bucket whose cumulative count reaches
 * 1, and the family's _sum (-1 for either when absent).
 */
std::pair<double, double>
firstBoundAndSum(const std::string &exposition,
                 const std::string &family)
{
    double bound = -1.0;
    double sum = -1.0;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.starts_with(family))
            continue;
        const double value = std::stod(line.substr(line.rfind(' ') + 1));
        if (line.starts_with(family + "_sum")) {
            sum = value;
        } else if (line.starts_with(family + "_bucket{") && bound < 0.0
                   && value >= 1.0) {
            const std::size_t le = line.find("le=\"") + 4;
            bound = std::stod(line.substr(le, line.find('"', le) - le));
        }
    }
    return {bound, sum};
}

TEST(ServeTelemetryTest, LatencyBucketBoundsCoverTheirSamples)
{
    TestServer daemon;
    const std::uint64_t id = submit(daemon.port(), kSpec);
    EXPECT_EQ(drainEvents(daemon.port(), id).first, "done");

    const HttpClientResponse response =
        httpRequest(daemon.port(), "GET", "/metrics");
    ASSERT_EQ(response.status, 200);
    // One run: each histogram holds one sample, so its _sum is that
    // sample, which the first bucket holding it must bound.
    for (const std::string family :
         {"dirsim_serve_queue_wait_seconds",
          "dirsim_serve_run_duration_seconds"}) {
        const auto [bound, sum] =
            firstBoundAndSum(response.body, family);
        EXPECT_GT(sum, 0.0) << family;
        EXPECT_GE(bound, sum) << family << "\n" << response.body;
    }
}

TEST(ServeTelemetryTest, TraceRendersTheRunTimeline)
{
    TestServer daemon;
    const std::uint64_t id = submit(daemon.port(), kSpec);
    EXPECT_EQ(drainEvents(daemon.port(), id).first, "done");

    const HttpClientResponse response = httpRequest(
        daemon.port(), "GET",
        "/runs/" + std::to_string(id) + "/trace");
    ASSERT_EQ(response.status, 200);

    const JsonValue json = JsonValue::parse(response.body);
    const JsonValue &events = json.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    std::size_t queue_spans = 0;
    std::size_t run_spans = 0;
    std::size_t cell_spans = 0;
    std::size_t http_spans = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &event = events.at(i);
        const JsonValue *cat = event.find("cat");
        if (cat == nullptr)
            continue;
        if (cat->asString() == "queue")
            ++queue_spans;
        else if (cat->asString() == "run")
            ++run_spans;
        else if (cat->asString() == "cell")
            ++cell_spans;
        else if (cat->asString() == "http")
            ++http_spans;
    }
    EXPECT_EQ(queue_spans, 1u);
    EXPECT_EQ(run_spans, 1u);
    EXPECT_EQ(cell_spans, 2u); // 2 schemes x 1 trace
    // The submitting POST always overlaps the run's window. The
    // events request is only guaranteed to when the run outlives it,
    // which a fast simulator on a small spec does not promise.
    EXPECT_GE(http_spans, 1u);

    const HttpClientResponse missing =
        httpRequest(daemon.port(), "GET", "/runs/999/trace");
    EXPECT_EQ(missing.status, 404);
}

TEST(ServeTelemetryTest, RestartReplaysTheJournal)
{
    const std::string journal_dir = freshJournalDir("restart");
    ServeConfig config;
    config.journalDir = journal_dir;

    {
        TestServer daemon(config);
        const std::uint64_t id = submit(daemon.port(), kSpec);
        EXPECT_EQ(id, 1u);
        EXPECT_EQ(drainEvents(daemon.port(), id).first, "done");
    }

    // A restarted daemon lists its predecessor's run, keeps
    // allocating past its ids, and refuses a trace it never saw.
    TestServer restarted(config);
    const HttpClientResponse list =
        httpRequest(restarted.port(), "GET", "/runs");
    ASSERT_EQ(list.status, 200);
    const JsonValue runs = JsonValue::parse(list.body).at("runs");
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs.at(0).at("id").asU64(), 1u);
    EXPECT_EQ(runs.at(0).at("state").asString(), "done");
    EXPECT_EQ(runs.at(0).at("name").asString(), "telemetry");

    const HttpClientResponse trace =
        httpRequest(restarted.port(), "GET", "/runs/1/trace");
    EXPECT_EQ(trace.status, 409);

    const std::uint64_t next = submit(restarted.port(), kSpec);
    EXPECT_EQ(next, 2u);
    EXPECT_EQ(drainEvents(restarted.port(), next).first, "done");
}

TEST(ServeTelemetryTest, InterruptedRunsSurfaceAfterRestart)
{
    const std::string journal_dir = freshJournalDir("interrupted");
    // Forge the crash artifact directly: a run that was submitted
    // and started but never finished (the daemon died mid-sweep),
    // with a half-written final line for good measure.
    {
        RunJournal journal(journalPathInDir(journal_dir));
        JournalEvent submitted;
        submitted.kind = "submitted";
        submitted.runId = 1;
        submitted.name = "doomed";
        submitted.spec = kSpec;
        submitted.cellsTotal = 2;
        journal.append(submitted);
        JournalEvent started;
        started.kind = "started";
        started.runId = 1;
        journal.append(started);
    }
    {
        std::ofstream out(journalPathInDir(journal_dir),
                          std::ios::app | std::ios::binary);
        out << R"({"kind":"cell","run":1,"ce)";
    }

    ServeConfig config;
    config.journalDir = journal_dir;
    TestServer daemon(config);

    const HttpClientResponse status =
        httpRequest(daemon.port(), "GET", "/runs/1");
    ASSERT_EQ(status.status, 200);
    EXPECT_EQ(JsonValue::parse(status.body).at("state").asString(),
              "interrupted");

    // Its event stream terminates immediately (the run is final),
    // and /status counts it.
    EXPECT_EQ(drainEvents(daemon.port(), 1).first, "interrupted");
    const HttpClientResponse service =
        httpRequest(daemon.port(), "GET", "/status");
    ASSERT_EQ(service.status, 200);
    EXPECT_EQ(JsonValue::parse(service.body)
                  .at("runs_interrupted")
                  .asU64(),
              1u);

    // Artifacts are refused (409, not 500) — the cells live in the
    // cell cache, recovered by resubmitting the spec.
    const HttpClientResponse artifacts =
        httpRequest(daemon.port(), "GET", "/runs/1/artifacts");
    EXPECT_EQ(artifacts.status, 409);
}

} // namespace
} // namespace dirsim
