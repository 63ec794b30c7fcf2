/**
 * @file
 * In-process end-to-end tests for the dirsim_serve daemon core
 * (serve/server.hh), driven through the bundled HTTP client.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/artifacts.hh"
#include "obs/journal.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sweep/run.hh"

namespace dirsim
{
namespace
{

const char *const kSpec =
    R"({"name":"e2e","schemes":["Dir0B","WTI"],)"
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

/** Submit a spec; returns the new run id (asserts 202). */
std::uint64_t
submit(std::uint16_t port, const std::string &spec,
       const std::string &client = {})
{
    std::vector<std::pair<std::string, std::string>> headers;
    if (!client.empty())
        headers.emplace_back("X-Dirsim-Client", client);
    const HttpClientResponse response =
        httpRequest(port, "POST", "/runs", spec, headers);
    EXPECT_EQ(response.status, 202) << response.body;
    return JsonValue::parse(response.body).at("id").asU64();
}

/** Stream a run's events until it finishes; returns the final
 *  state. */
std::string
waitForRun(std::uint16_t port, std::uint64_t id)
{
    std::string final_state;
    const int status = httpStreamLines(
        port, "/runs/" + std::to_string(id) + "/events",
        [&](const std::string &line) {
            const JsonValue json = JsonValue::parse(line);
            if (const JsonValue *kind = json.find("kind");
                kind && kind->asString() == "state")
                final_state = json.at("state").asString();
            return true;
        });
    EXPECT_EQ(status, 200);
    return final_state;
}

TEST(SweepServerTest, SubmitStreamFetchDiffLifecycle)
{
    TestServer daemon;
    const std::uint64_t id = submit(daemon.port(), kSpec);
    EXPECT_EQ(waitForRun(daemon.port(), id), "done");

    // Status reflects completion.
    const HttpClientResponse status = httpRequest(
        daemon.port(), "GET", "/runs/" + std::to_string(id));
    ASSERT_EQ(status.status, 200);
    const JsonValue json = JsonValue::parse(status.body);
    EXPECT_EQ(json.at("state").asString(), "done");
    EXPECT_EQ(json.at("name").asString(), "e2e");

    // Artifacts parse and match a local run of the same spec.
    const HttpClientResponse artifacts = httpRequest(
        daemon.port(), "GET",
        "/runs/" + std::to_string(id) + "/artifacts");
    ASSERT_EQ(artifacts.status, 200);
    std::istringstream served_in(artifacts.body);
    const RunArtifacts served = loadArtifacts(served_in);
    EXPECT_EQ(served.cells.size(), 2u);

    const SweepOutcome local =
        runSweep(expandSweep(parseSweepSpec(kSpec)), {});
    std::ostringstream local_text;
    {
        JsonlSink sink(local_text);
        writeSweepArtifacts(local, sink);
    }
    std::istringstream local_in(local_text.str());
    const RunArtifacts local_loaded = loadArtifacts(local_in);
    EXPECT_TRUE(diffArtifacts(served, local_loaded).empty());

    // The server-side diff endpoint agrees two same-spec runs are
    // clean.
    const std::uint64_t second = submit(daemon.port(), kSpec);
    EXPECT_EQ(waitForRun(daemon.port(), second), "done");
    const HttpClientResponse diff = httpRequest(
        daemon.port(), "GET",
        "/runs/" + std::to_string(id) + "/diff/"
            + std::to_string(second));
    ASSERT_EQ(diff.status, 200) << diff.body;
    EXPECT_TRUE(JsonValue::parse(diff.body).at("clean").asBool());
}

TEST(SweepServerTest, MalformedSpecsGet400WithDiagnostics)
{
    TestServer daemon;
    const std::vector<std::string> bad{
        "this is not json",
        R"({"bogus": true})",
        R"({"name":"x","schemes":["NotAScheme"],)"
        R"("traces":[{"profile":"pops"}]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],"geometries":["infinite",)"
        R"({"capacity_bytes":100,"ways":3}]})",
        // A repeated axis value: the linter's duplicate check.
        R"({"name":"x","schemes":["Dir0B","dir0b","WTI"],)"
        R"("traces":[{"profile":"pops"}]})",
        // A 2^40-byte cache: above FiniteCacheConfig's limit.
        R"({"name":"x","schemes":["Dir0B"],"traces":[{"profile":"pops"}],)"
        R"("geometries":[{"capacity_bytes":1099511627776,"ways":1}]})",
        // A block smaller than a bus word: checkBlockSize().
        R"({"name":"x","schemes":["Dir0B"],"traces":[{"profile":"pops"}],)"
        R"("block_bytes":[3]})",
    };
    for (const std::string &spec : bad) {
        const HttpClientResponse response =
            httpRequest(daemon.port(), "POST", "/runs", spec);
        EXPECT_EQ(response.status, 400) << spec;
        const JsonValue json = JsonValue::parse(response.body);
        EXPECT_FALSE(json.at("error").asString().empty()) << spec;
    }
    // The daemon survives abuse: a good spec still runs.
    const std::uint64_t id = submit(daemon.port(), kSpec);
    EXPECT_EQ(waitForRun(daemon.port(), id), "done");
}

TEST(SweepServerTest, FullQueueGets429WithoutCrashing)
{
    ServeConfig config;
    config.queueCapacity = 2;
    config.hold = true; // nothing executes; the queue stays full
    TestServer daemon(std::move(config));

    submit(daemon.port(), kSpec);
    submit(daemon.port(), kSpec);
    const HttpClientResponse overflow =
        httpRequest(daemon.port(), "POST", "/runs", kSpec);
    EXPECT_EQ(overflow.status, 429);
    EXPECT_NE(JsonValue::parse(overflow.body)
                  .at("error")
                  .asString()
                  .find("queue"),
              std::string::npos);

    // Still serving: status works, and releasing drains the backlog.
    const HttpClientResponse status =
        httpRequest(daemon.port(), "GET", "/");
    ASSERT_EQ(status.status, 200);
    EXPECT_EQ(JsonValue::parse(status.body)
                  .at("queue_depth")
                  .asU64(),
              2u);
    const HttpClientResponse release =
        httpRequest(daemon.port(), "POST", "/admin/release");
    EXPECT_EQ(release.status, 200);
    EXPECT_EQ(waitForRun(daemon.port(), 1), "done");
    EXPECT_EQ(waitForRun(daemon.port(), 2), "done");
}

TEST(SweepServerTest, CancelQueuedRun)
{
    ServeConfig config;
    config.hold = true;
    TestServer daemon(std::move(config));
    const std::uint64_t id = submit(daemon.port(), kSpec);
    const HttpClientResponse cancel = httpRequest(
        daemon.port(), "POST",
        "/runs/" + std::to_string(id) + "/cancel");
    ASSERT_EQ(cancel.status, 200);
    EXPECT_EQ(JsonValue::parse(cancel.body).at("state").asString(),
              "cancelled");
    // Cancelled runs have no artifacts.
    const HttpClientResponse artifacts = httpRequest(
        daemon.port(), "GET",
        "/runs/" + std::to_string(id) + "/artifacts");
    EXPECT_EQ(artifacts.status, 409);
}

TEST(SweepServerTest, UnknownRoutesAndRuns)
{
    TestServer daemon;
    EXPECT_EQ(httpRequest(daemon.port(), "GET", "/nope").status,
              404);
    EXPECT_EQ(httpRequest(daemon.port(), "GET", "/runs/42").status,
              404);
    EXPECT_EQ(
        httpRequest(daemon.port(), "GET", "/runs/42/artifacts")
            .status,
        404);
    EXPECT_EQ(httpRequest(daemon.port(), "DELETE", "/runs").status,
              405);
}

TEST(SweepServerTest, RunsListOldestFirst)
{
    ServeConfig config;
    config.hold = true;
    TestServer daemon(std::move(config));
    const std::uint64_t a = submit(daemon.port(), kSpec, "alice");
    const std::uint64_t b = submit(daemon.port(), kSpec, "bob");
    const HttpClientResponse list =
        httpRequest(daemon.port(), "GET", "/runs");
    ASSERT_EQ(list.status, 200);
    const JsonValue json = JsonValue::parse(list.body);
    const JsonValue &runs = json.at("runs");
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs.at(std::size_t{0}).at("id").asU64(), a);
    EXPECT_EQ(runs.at(std::size_t{1}).at("id").asU64(), b);
    EXPECT_EQ(runs.at(std::size_t{1}).at("client").asString(),
              "bob");
}

/**
 * Submit @p clients' runs (one per entry, "" = no X-Dirsim-Client
 * header) to a held daemon journaling into a fresh directory, release
 * it, wait for every run, and return the run ids in the order the
 * journal's "started" events list them.
 */
std::vector<std::uint64_t>
startOrder(const char *name, const std::vector<std::string> &clients)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir())
        / "dirsim_serve_start_order" / name;
    std::filesystem::remove_all(dir);
    ServeConfig config;
    config.hold = true;
    config.journalDir = dir.string();
    std::vector<std::uint64_t> ids;
    {
        TestServer daemon(config);
        for (const std::string &client : clients)
            ids.push_back(submit(daemon.port(), kSpec, client));
        EXPECT_EQ(httpRequest(daemon.port(), "POST", "/admin/release")
                      .status,
                  200);
        for (const std::uint64_t id : ids)
            EXPECT_EQ(waitForRun(daemon.port(), id), "done");
    }
    std::vector<std::uint64_t> started;
    std::ifstream journal(journalPathInDir(dir.string()));
    std::string line;
    while (std::getline(journal, line)) {
        const JsonValue json = JsonValue::parse(line);
        if (json.at("kind").asString() == "started")
            started.push_back(json.at("run").asU64());
    }
    return started;
}

TEST(SweepServerTest, QueueServesClientsRoundRobin)
{
    // Client a queues two runs before b queues one: b's run goes
    // between a's two.
    const std::vector<std::uint64_t> rr =
        startOrder("clients", {"a", "a", "b"});
    EXPECT_EQ(rr, (std::vector<std::uint64_t>{1, 3, 2}));

    // Without the header every run shares one identity and starts
    // in submission order.
    const std::vector<std::uint64_t> anonymous =
        startOrder("anonymous", {"", "", ""});
    EXPECT_EQ(anonymous, (std::vector<std::uint64_t>{1, 2, 3}));
}

/** Bytes this process maps: the sum of /proc/self/maps' ranges. */
std::uint64_t
mappedBytes()
{
    std::ifstream maps("/proc/self/maps");
    std::uint64_t bytes = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    char dash = 0;
    for (std::string rest; maps >> std::hex >> start >> dash >> end;
         std::getline(maps, rest))
        bytes += end - start;
    return bytes;
}

TEST(SweepServerTest, FinishedHandlersReleaseTheirThreads)
{
    // Each connection runs on its own thread. One kept unjoined until
    // stop() keeps its stack mapped (8 MiB by default), so 300
    // requests would map some 2.4 GiB. Bytes, not lines of the maps
    // file: the sanitizers split their own reserved regions as
    // threads come and go.
    TestServer daemon;
    const auto requests = [&](int count) {
        for (int request = 0; request < count; ++request) {
            ASSERT_EQ(
                httpRequest(daemon.port(), "GET", "/status").status,
                200);
        }
    };
    // The first requests may add a malloc arena and fill glibc's cache
    // of free thread stacks.
    requests(50);
    const std::uint64_t before = mappedBytes();
    requests(300);
    const std::uint64_t after = mappedBytes();
    EXPECT_LT(after, before + (std::uint64_t{256} << 20))
        << (after - before) / (1 << 20) << " MiB more mapped";
}

TEST(SweepServerTest, ShutdownEndpointReleasesWaiters)
{
    auto daemon = std::make_unique<TestServer>();
    const std::uint16_t port = daemon->port();
    const HttpClientResponse response =
        httpRequest(port, "POST", "/shutdown");
    EXPECT_EQ(response.status, 200);
    daemon->server.waitForShutdown(); // returns promptly
    daemon.reset();                   // stop() + joins: no hang
    // The port is released: connecting now fails.
    EXPECT_THROW(httpRequest(port, "GET", "/"), UsageError);
}

} // namespace
} // namespace dirsim
