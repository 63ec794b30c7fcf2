#include "serve/server.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "obs/artifacts.hh"
#include "obs/exposition.hh"
#include "obs/phase.hh"
#include "obs/sink.hh"
#include "sweep/run.hh"
#include "sweep/spec.hh"

namespace dirsim
{

namespace
{

/** Exposed buckets of the latency histograms: log2 milliseconds,
 *  bucket b = bit_width(whole milliseconds) holding durations below
 *  2^b ms (bucket 0 = sub-millisecond). Durations of 2^31 ms (about
 *  25 days) or more count only in +Inf. */
constexpr std::size_t latencyBuckets = 32;

std::uint64_t
latencyBucket(std::uint64_t duration_ns)
{
    return std::bit_width(duration_ns / 1000000);
}

/** Cumulative upper bounds of the latency buckets, in seconds:
 *  bucket b holds durations below 2^b ms. */
std::vector<double>
latencyBounds()
{
    std::vector<double> bounds;
    bounds.reserve(latencyBuckets);
    for (std::size_t b = 0; b < latencyBuckets; ++b)
        bounds.push_back(std::pow(2.0, static_cast<double>(b)) / 1e3);
    return bounds;
}

std::string
errorJson(const std::string &message)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject().key("error").value(message).endObject();
    return os.str();
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = errorJson(message);
    return response;
}

/** "/runs/12/events" -> {"runs", "12", "events"}. */
std::vector<std::string>
pathSegments(const std::string &path)
{
    std::vector<std::string> segments;
    std::istringstream in(path);
    std::string segment;
    while (std::getline(in, segment, '/')) {
        if (!segment.empty())
            segments.push_back(segment);
    }
    return segments;
}

/** Parse a run id segment; false on non-numeric ids. */
bool
parseRunId(const std::string &text, std::uint64_t &id)
{
    try {
        id = parseDecimal(text, "run id");
    } catch (const UsageError &) {
        return false;
    }
    return true;
}

/**
 * Normalize a request path to its route pattern, so the request
 * counters stay a bounded family ({endpoint, status} labels) no
 * matter how many runs exist or what garbage paths arrive.
 */
std::string
endpointPattern(const std::vector<std::string> &segments)
{
    if (segments.empty())
        return "/";
    if (segments[0] == "runs") {
        if (segments.size() == 1)
            return "/runs";
        if (segments.size() == 2)
            return "/runs/{id}";
        if (segments.size() == 3
            && (segments[2] == "events" || segments[2] == "artifacts"
                || segments[2] == "cancel" || segments[2] == "trace"))
            return "/runs/{id}/" + segments[2];
        if (segments.size() == 4 && segments[2] == "diff")
            return "/runs/{id}/diff/{id}";
        return "(other)";
    }
    if (segments.size() == 1
        && (segments[0] == "metrics" || segments[0] == "status"
            || segments[0] == "shutdown"))
        return "/" + segments[0];
    if (segments.size() == 2 && segments[0] == "admin"
        && segments[1] == "release")
        return "/admin/release";
    return "(other)";
}

/** The one synthetic event line replay gives a recovered run, so
 *  streamers of recovered runs terminate like any finished run's. */
std::string
stateEventLine(const std::string &state)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("kind").value("state")
        .key("state").value(state)
        .endObject();
    return os.str();
}

} // namespace

SweepServer::SweepServer(ServeConfig config_arg)
    : config(std::move(config_arg))
{
}

SweepServer::~SweepServer()
{
    stop();
}

void
SweepServer::replayJournalLocked()
{
    const std::string path = journalPathInDir(config.journalDir);
    const JournalReplay replay = replayJournal(path);
    for (const JournalRun &run : replay.runs) {
        auto entry = std::make_unique<RunEntry>();
        entry->id = run.id;
        entry->client = run.client;
        entry->specText = run.spec;
        entry->name = run.name;
        entry->state = run.state;
        entry->error = run.error;
        entry->cellsTotal = run.cellsTotal;
        entry->recovered = true;
        entry->events.push_back(stateEventLine(run.state));
        runs.emplace(run.id, std::move(entry));
    }
    nextId = replay.maxRunId + 1;
    journal = std::make_unique<RunJournal>(path);
    logEvent(LogLevel::Info, "serve.journal.replayed")
        .field("path", path)
        .field("runs",
               static_cast<std::uint64_t>(replay.runs.size()))
        .field("corrupt_lines",
               static_cast<std::uint64_t>(replay.corruptLines))
        .field("truncated_tail", replay.truncatedTail);
}

void
SweepServer::journalAppend(JournalEvent event)
{
    if (journal)
        journal->append(std::move(event));
}

void
SweepServer::start()
{
    fatalIf(started, "server already started");
    holding = config.hold;
    serverStartNs = PhaseTimer::nowNs();
    if (!config.journalDir.empty()) {
        std::lock_guard<std::mutex> lock(stateMutex);
        replayJournalLocked();
    }
    listener = std::make_unique<HttpListener>(config.port);
    started = true;
    acceptThread = std::thread(&SweepServer::acceptLoop, this);
    workerThread = std::thread(&SweepServer::workerLoop, this);
    logEvent(LogLevel::Info, "serve.start")
        .field("port", static_cast<unsigned>(listener->port()))
        .field("queue_capacity",
               static_cast<std::uint64_t>(config.queueCapacity))
        .field("journal", config.journalDir.empty()
                   ? std::string_view("")
                   : std::string_view(journal->path()));
}

std::uint16_t
SweepServer::port() const
{
    panicIfNot(listener != nullptr, "port() before start()");
    return listener->port();
}

void
SweepServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(stateMutex);
    stopCv.wait(lock, [&] { return stopping; });
}

void
SweepServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        stopping = true;
        // The running sweep (if any) stops at its next cell boundary.
        for (auto &[id, entry] : runs)
            entry->cancel.store(true);
    }
    workCv.notify_all();
    eventsCv.notify_all();
    stopCv.notify_all();
    if (listener)
        listener->shutdown();
    if (acceptThread.joinable())
        acceptThread.join();

    // The accept thread was the only spawner. A handler that finishes
    // from here on no longer finds itself in the list, so it is joined
    // here; one that finished before left the list detached.
    std::vector<std::thread> to_join;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        to_join.swap(handlers);
    }
    for (std::thread &handler : to_join)
        handler.join();
    if (workerThread.joinable())
        workerThread.join();
}

void
SweepServer::acceptLoop()
{
    for (;;) {
        const int fd = listener->acceptConnection();
        if (fd < 0)
            return;
        std::lock_guard<std::mutex> lock(stateMutex);
        if (stopping) {
            HttpConnection drop(fd);
            return;
        }
        try {
            handlers.emplace_back([this, fd] {
                handleConnection(fd);
                // Leave the list detached, so the finished thread's
                // stack is released now, not at stop(); stop() may
                // already have taken the list to join it.
                std::lock_guard<std::mutex> done(stateMutex);
                const auto self = std::find_if(
                    handlers.begin(), handlers.end(),
                    [](const std::thread &handler) {
                        return handler.get_id()
                            == std::this_thread::get_id();
                    });
                if (self != handlers.end()) {
                    self->detach();
                    handlers.erase(self);
                }
            });
        } catch (const std::system_error &error) {
            // Out of threads: refuse this connection, keep serving.
            HttpConnection drop(fd);
            logEvent(LogLevel::Warn, "serve.accept.refused")
                .field("error", error.what());
        }
    }
}

void
SweepServer::recordRequest(const std::string &pattern, int status,
                           std::uint64_t start_ns)
{
    const std::uint64_t now = PhaseTimer::nowNs();
    const std::uint64_t duration_ns =
        now > start_ns ? now - start_ns : 0;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        ++requestCounts[{pattern, std::to_string(status)}];
        TraceSpan span;
        span.name = pattern;
        span.category = "http";
        span.startNs = start_ns;
        span.durationNs = duration_ns;
        span.args.emplace_back("status", std::to_string(status));
        if (httpSpans.size() >= 512)
            httpSpans.erase(httpSpans.begin());
        httpSpans.push_back(std::move(span));
    }
    logEvent(LogLevel::Debug, "serve.http.request")
        .field("endpoint", pattern)
        .field("status", status)
        .field("duration_ms",
               static_cast<double>(duration_ns) / 1e6);
}

void
SweepServer::handleConnection(int fd)
{
    HttpConnection connection(fd);
    HttpRequest request;
    std::string parse_error;
    if (!connection.readRequest(request, parse_error)) {
        if (!parse_error.empty())
            connection.sendResponse(
                errorResponse(400, parse_error));
        return;
    }

    const std::uint64_t start_ns = PhaseTimer::nowNs();
    bool responded = false;
    HttpResponse response;
    try {
        response = handle(request, connection, responded);
    } catch (const SimulationError &error) {
        response = errorResponse(400, error.what());
    } catch (const std::exception &error) {
        response = errorResponse(500, error.what());
    }
    // Streamed responses (responded == true) committed a 200 before
    // streaming.
    recordRequest(endpointPattern(pathSegments(request.path())),
                  responded ? 200 : response.status, start_ns);
    if (!responded)
        connection.sendResponse(response);
}

HttpResponse
SweepServer::handle(const HttpRequest &request,
                    HttpConnection &connection, bool &responded)
{
    const std::vector<std::string> segments =
        pathSegments(request.path());

    if (segments.empty()) {
        if (request.method != "GET")
            return errorResponse(405, "use GET /");
        std::ostringstream os;
        JsonWriter writer(os);
        std::lock_guard<std::mutex> lock(stateMutex);
        writer.beginObject()
            .key("service").value("dirsim_serve")
            .key("queue_depth").value(
                static_cast<std::uint64_t>(queue.size()))
            .key("queue_capacity").value(
                static_cast<std::uint64_t>(config.queueCapacity))
            .key("holding").value(holding)
            .key("runs").value(
                static_cast<std::uint64_t>(runs.size()))
            .endObject();
        HttpResponse response;
        response.body = os.str();
        return response;
    }

    if (segments.size() == 1 && segments[0] == "status") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /status");
        return handleServiceStatus();
    }

    if (segments.size() == 1 && segments[0] == "metrics") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /metrics");
        return handleMetrics();
    }

    if (segments[0] == "runs") {
        if (segments.size() == 1) {
            if (request.method == "POST")
                return handleSubmit(request);
            if (request.method == "GET")
                return handleList();
            return errorResponse(405, "use GET or POST /runs");
        }
        std::uint64_t id = 0;
        if (!parseRunId(segments[1], id))
            return errorResponse(404, "unknown run '" + segments[1]
                                     + "'");
        if (segments.size() == 2) {
            if (request.method != "GET")
                return errorResponse(405, "use GET /runs/{id}");
            return handleStatus(id);
        }
        if (segments.size() == 3 && segments[2] == "events") {
            if (request.method != "GET")
                return errorResponse(405,
                                     "use GET /runs/{id}/events");
            streamEvents(id, connection);
            responded = true;
            return {};
        }
        if (segments.size() == 3 && segments[2] == "artifacts") {
            if (request.method != "GET")
                return errorResponse(
                    405, "use GET /runs/{id}/artifacts");
            return handleArtifacts(id);
        }
        if (segments.size() == 3 && segments[2] == "trace") {
            if (request.method != "GET")
                return errorResponse(405,
                                     "use GET /runs/{id}/trace");
            return handleTrace(id);
        }
        if (segments.size() == 3 && segments[2] == "cancel") {
            if (request.method != "POST")
                return errorResponse(405,
                                     "use POST /runs/{id}/cancel");
            return handleCancel(id);
        }
        if (segments.size() == 4 && segments[2] == "diff") {
            if (request.method != "GET")
                return errorResponse(
                    405, "use GET /runs/{id}/diff/{id}");
            std::uint64_t other = 0;
            if (!parseRunId(segments[3], other))
                return errorResponse(404, "unknown run '"
                                         + segments[3] + "'");
            return handleDiff(id, other);
        }
        return errorResponse(404,
                             "no such endpoint under /runs");
    }

    if (segments.size() == 2 && segments[0] == "admin"
        && segments[1] == "release") {
        if (request.method != "POST")
            return errorResponse(405, "use POST /admin/release");
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            holding = false;
        }
        workCv.notify_all();
        HttpResponse response;
        response.body = "{\"holding\":false}";
        return response;
    }

    if (segments.size() == 1 && segments[0] == "shutdown") {
        if (request.method != "POST")
            return errorResponse(405, "use POST /shutdown");
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            stopping = true;
            for (auto &[id, entry] : runs)
                entry->cancel.store(true);
        }
        logEvent(LogLevel::Info, "serve.shutdown");
        stopCv.notify_all();
        workCv.notify_all();
        eventsCv.notify_all();
        HttpResponse response;
        response.body = "{\"stopping\":true}";
        return response;
    }

    return errorResponse(404, "no such endpoint '" + request.path()
                             + "'");
}

HttpResponse
SweepServer::handleSubmit(const HttpRequest &request)
{
    // Validate up front so a malformed spec is a 400 with the
    // parser's diagnostic and never occupies a queue slot.
    SweepSpec spec;
    std::size_t cells = 0;
    try {
        spec = parseSweepSpec(request.body);
        cells = expandSweep(spec).cells.size();
    } catch (const UsageError &error) {
        return errorResponse(400, std::string("sweep spec rejected: ")
                                 + error.what());
    }

    const std::string *client_header =
        request.header("x-dirsim-client");
    const std::string client =
        client_header ? *client_header : std::string();

    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        if (stopping)
            return errorResponse(503, "daemon is shutting down");
        if (queue.size() >= config.queueCapacity)
            return errorResponse(
                429, "queue full ("
                    + std::to_string(config.queueCapacity)
                    + " runs waiting); retry later");
        id = nextId++;
        auto entry = std::make_unique<RunEntry>();
        entry->id = id;
        entry->client = client;
        entry->specText = request.body;
        entry->name = spec.name;
        entry->cellsTotal = cells;
        entry->submittedNs = PhaseTimer::nowNs();
        entry->events.push_back("{\"kind\":\"state\",\"state\":"
                                "\"queued\"}");
        runs.emplace(id, std::move(entry));
        queue.enqueue({id, client});

        JournalEvent event;
        event.kind = "submitted";
        event.runId = id;
        event.name = spec.name;
        event.client = client;
        event.spec = request.body;
        event.cellsTotal = cells;
        journalAppend(std::move(event));
    }
    workCv.notify_one();
    eventsCv.notify_all();
    logEvent(LogLevel::Info, "serve.run.submitted")
        .field("run", id)
        .field("name", spec.name)
        .field("client", client)
        .field("cells", static_cast<std::uint64_t>(cells));

    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("id").value(id)
        .key("name").value(spec.name)
        .key("state").value("queued")
        .key("cells").value(static_cast<std::uint64_t>(cells))
        .endObject();
    HttpResponse response;
    response.status = 202;
    response.body = os.str();
    return response;
}

namespace
{

void
writeRunJson(JsonWriter &writer,
             std::uint64_t id, const std::string &name,
             const std::string &state, const std::string &client,
             const std::string &error, std::size_t events)
{
    writer.beginObject()
        .key("id").value(id)
        .key("name").value(name)
        .key("state").value(state);
    if (!client.empty())
        writer.key("client").value(client);
    if (!error.empty())
        writer.key("error").value(error);
    writer.key("events").value(static_cast<std::uint64_t>(events))
        .endObject();
}

} // namespace

HttpResponse
SweepServer::handleStatus(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(stateMutex);
    const auto it = runs.find(id);
    if (it == runs.end())
        return errorResponse(404,
                             "unknown run " + std::to_string(id));
    const RunEntry &entry = *it->second;
    std::ostringstream os;
    JsonWriter writer(os);
    writeRunJson(writer, entry.id, entry.name, entry.state,
                 entry.client, entry.error, entry.events.size());
    HttpResponse response;
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleList()
{
    std::lock_guard<std::mutex> lock(stateMutex);
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject().key("runs").beginArray();
    for (const auto &[id, entry] : runs)
        writeRunJson(writer, entry->id, entry->name, entry->state,
                     entry->client, entry->error,
                     entry->events.size());
    writer.endArray().endObject();
    HttpResponse response;
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleServiceStatus()
{
    const std::uint64_t now = PhaseTimer::nowNs();
    std::lock_guard<std::mutex> lock(stateMutex);
    std::size_t interrupted = 0;
    for (const auto &[id, entry] : runs)
        if (entry->state == "interrupted")
            ++interrupted;
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("service").value("dirsim_serve")
        .key("queue_depth").value(
            static_cast<std::uint64_t>(queue.size()))
        .key("queue_capacity").value(
            static_cast<std::uint64_t>(config.queueCapacity))
        .key("holding").value(holding)
        .key("active_run").value(activeRunId)
        .key("uptime_seconds").value(
            static_cast<double>(now - serverStartNs) / 1e9)
        .key("journal").value(journal ? journal->path()
                                      : std::string())
        .key("runs").value(static_cast<std::uint64_t>(runs.size()))
        .key("runs_interrupted").value(
            static_cast<std::uint64_t>(interrupted))
        .endObject();
    HttpResponse response;
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleMetrics()
{
    const std::uint64_t now = PhaseTimer::nowNs();
    const std::vector<double> bounds = latencyBounds();
    std::ostringstream os;
    PromWriter prom(os);
    std::lock_guard<std::mutex> lock(stateMutex);

    prom.help("dirsim_serve_uptime_seconds",
              "Seconds since the daemon started");
    prom.type("dirsim_serve_uptime_seconds", "gauge");
    prom.sample("dirsim_serve_uptime_seconds", {},
                static_cast<double>(now - serverStartNs) / 1e9);

    prom.help("dirsim_serve_queue_depth",
              "Runs waiting in the service queue");
    prom.type("dirsim_serve_queue_depth", "gauge");
    prom.sample("dirsim_serve_queue_depth", {},
                static_cast<std::uint64_t>(queue.size()));

    prom.help("dirsim_serve_queue_capacity",
              "Queued-run bound; submissions past it get 429");
    prom.type("dirsim_serve_queue_capacity", "gauge");
    prom.sample("dirsim_serve_queue_capacity", {},
                static_cast<std::uint64_t>(config.queueCapacity));

    std::map<std::string, std::uint64_t> by_state;
    for (const auto &[id, entry] : runs)
        ++by_state[entry->state];
    prom.help("dirsim_serve_runs",
              "Known runs by lifecycle state");
    prom.type("dirsim_serve_runs", "gauge");
    for (const auto &[state, count] : by_state)
        prom.sample("dirsim_serve_runs", {{"state", state}}, count);

    prom.help("dirsim_serve_requests_total",
              "HTTP requests served, by endpoint pattern and "
              "status");
    prom.type("dirsim_serve_requests_total", "counter");
    for (const auto &[key, count] : requestCounts)
        prom.sample("dirsim_serve_requests_total",
                    {{"endpoint", key.first},
                     {"status", key.second}},
                    count);

    prom.help("dirsim_serve_queue_wait_seconds",
              "Submission-to-dispatch wait per run");
    prom.type("dirsim_serve_queue_wait_seconds", "histogram");
    prom.histogram("dirsim_serve_queue_wait_seconds", {},
                   queueWaitHist, bounds, queueWaitSumSeconds);

    prom.help("dirsim_serve_run_duration_seconds",
              "Sweep execution wall time per run");
    prom.type("dirsim_serve_run_duration_seconds", "histogram");
    prom.histogram("dirsim_serve_run_duration_seconds", {},
                   runDurationHist, bounds, runDurationSumSeconds);

    prom.help("dirsim_serve_cells_completed_total",
              "Sweep cells finished across all runs");
    prom.type("dirsim_serve_cells_completed_total", "counter");
    prom.sample("dirsim_serve_cells_completed_total", {},
                totalCellsCompleted);

    prom.help("dirsim_serve_cache_hits_total",
              "Cells replayed from the cell cache");
    prom.type("dirsim_serve_cache_hits_total", "counter");
    prom.sample("dirsim_serve_cache_hits_total", {},
                totalCacheHits);

    prom.help("dirsim_serve_cache_misses_total",
              "Cells simulated (not in the cell cache)");
    prom.type("dirsim_serve_cache_misses_total", "counter");
    prom.sample("dirsim_serve_cache_misses_total", {},
                totalCacheMisses);

    prom.help("dirsim_serve_simulated_refs_total",
              "Trace references simulated across all runs");
    prom.type("dirsim_serve_simulated_refs_total", "counter");
    prom.sample("dirsim_serve_simulated_refs_total", {},
                totalSimulatedRefs);

    prom.help("dirsim_serve_refs_per_second",
              "Aggregate simulation throughput over finished runs");
    prom.type("dirsim_serve_refs_per_second", "gauge");
    prom.sample("dirsim_serve_refs_per_second", {},
                totalRunWallSeconds > 0.0
                    ? static_cast<double>(totalSimulatedRefs)
                        / totalRunWallSeconds
                    : 0.0);

    writePrometheus(os, sweepMetrics, "dirsim.sweep");

    HttpResponse response;
    response.contentType = "text/plain; version=0.0.4";
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleTrace(std::uint64_t id)
{
    const std::uint64_t now = PhaseTimer::nowNs();
    std::lock_guard<std::mutex> lock(stateMutex);
    const auto it = runs.find(id);
    if (it == runs.end())
        return errorResponse(404,
                             "unknown run " + std::to_string(id));
    const RunEntry &entry = *it->second;
    if (entry.recovered || entry.submittedNs == 0)
        return errorResponse(
            409, "run " + std::to_string(id)
                + " predates this daemon process; its timeline was "
                  "not recorded");

    // Lane 0: the run's own lifecycle. Workers get lanes 1..N
    // (workerCellSpans()); HTTP requests share the last lane.
    std::vector<TraceSpan> spans;
    const std::uint64_t started_mark =
        entry.startedNs != 0 ? entry.startedNs : now;
    const std::uint64_t finished_mark =
        entry.finishedNs != 0 ? entry.finishedNs : now;

    {
        TraceSpan wait;
        wait.name = "queue-wait";
        wait.category = "queue";
        wait.lane = 0;
        wait.startNs = entry.submittedNs;
        wait.durationNs = started_mark > entry.submittedNs
            ? started_mark - entry.submittedNs : 0;
        wait.args.emplace_back("state", entry.state);
        spans.push_back(std::move(wait));
    }
    if (entry.startedNs != 0) {
        TraceSpan run;
        run.name = "run " + std::to_string(entry.id) + " ("
            + entry.name + ")";
        run.category = "run";
        run.lane = 0;
        run.startNs = entry.startedNs;
        run.durationNs = finished_mark > entry.startedNs
            ? finished_mark - entry.startedNs : 0;
        run.args.emplace_back("state", entry.state);
        run.args.emplace_back(
            "cells", std::to_string(entry.timings.size()));
        spans.push_back(std::move(run));
    }

    std::vector<std::string> lane_names{"run"};
    for (TraceSpan &cell : workerCellSpans(entry.timings, lane_names))
        spans.push_back(std::move(cell));

    const auto http_lane = static_cast<unsigned>(lane_names.size());
    lane_names.push_back("http");
    for (const TraceSpan &request : httpSpans) {
        // Keep requests overlapping the run's window; the submitting
        // POST itself starts a hair before submittedNs is stamped,
        // so the window is judged by each request's end.
        if (request.startNs + request.durationNs < entry.submittedNs
            || (entry.finishedNs != 0
                && request.startNs > entry.finishedNs))
            continue;
        TraceSpan span = request;
        span.lane = http_lane;
        spans.push_back(std::move(span));
    }

    std::ostringstream os;
    writeChromeSpans(os, spans, entry.submittedNs, lane_names);
    HttpResponse response;
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleArtifacts(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(stateMutex);
    const auto it = runs.find(id);
    if (it == runs.end())
        return errorResponse(404,
                             "unknown run " + std::to_string(id));
    const RunEntry &entry = *it->second;
    if (entry.state != "done")
        return errorResponse(409, "run " + std::to_string(id)
                                 + " has no artifacts (state "
                                 + entry.state + ")");
    HttpResponse response;
    response.contentType = "application/x-ndjson";
    response.body = entry.artifacts;
    return response;
}

HttpResponse
SweepServer::handleDiff(std::uint64_t a, std::uint64_t b)
{
    std::string artifacts_a;
    std::string artifacts_b;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        for (const std::uint64_t id : {a, b}) {
            const auto it = runs.find(id);
            if (it == runs.end())
                return errorResponse(
                    404, "unknown run " + std::to_string(id));
            if (it->second->state != "done")
                return errorResponse(
                    409, "run " + std::to_string(id)
                        + " has no artifacts (state "
                        + it->second->state + ")");
        }
        artifacts_a = runs.at(a)->artifacts;
        artifacts_b = runs.at(b)->artifacts;
    }

    std::istringstream stream_a(artifacts_a);
    std::istringstream stream_b(artifacts_b);
    const RunArtifacts loaded_a = loadArtifacts(stream_a);
    const RunArtifacts loaded_b = loadArtifacts(stream_b);
    const std::vector<MetricDelta> deltas =
        diffArtifacts(loaded_a, loaded_b);

    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("a").value(a)
        .key("b").value(b)
        .key("clean").value(deltas.empty())
        .key("deltas").beginArray();
    for (const MetricDelta &delta : deltas) {
        writer.beginObject()
            .key("cell").value(delta.cell)
            .key("metric").value(delta.metric)
            .key("a").value(delta.a)
            .key("b").value(delta.b)
            .endObject();
    }
    writer.endArray().endObject();
    HttpResponse response;
    response.body = os.str();
    return response;
}

HttpResponse
SweepServer::handleCancel(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(stateMutex);
    const auto it = runs.find(id);
    if (it == runs.end())
        return errorResponse(404,
                             "unknown run " + std::to_string(id));
    RunEntry &entry = *it->second;
    if (entry.state == "queued") {
        queue.remove(id);
        entry.state = "cancelled";
        entry.finishedNs = PhaseTimer::nowNs();
        entry.events.push_back("{\"kind\":\"state\",\"state\":"
                               "\"cancelled\"}");
        JournalEvent event;
        event.kind = "finished";
        event.runId = id;
        event.state = "cancelled";
        journalAppend(std::move(event));
        eventsCv.notify_all();
    } else if (entry.state == "running") {
        entry.cancel.store(true);
    }
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject()
        .key("id").value(id)
        .key("state").value(entry.state)
        .endObject();
    HttpResponse response;
    response.body = os.str();
    return response;
}

void
SweepServer::streamEvents(std::uint64_t id,
                          HttpConnection &connection)
{
    RunEntry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        const auto it = runs.find(id);
        if (it == runs.end()) {
            connection.sendResponse(errorResponse(
                404, "unknown run " + std::to_string(id)));
            return;
        }
        entry = it->second.get();
    }

    connection.beginStream(200);
    std::size_t sent = 0;
    std::unique_lock<std::mutex> lock(stateMutex);
    for (;;) {
        while (sent < entry->events.size()) {
            const std::string line = entry->events[sent++];
            lock.unlock();
            const bool alive = connection.sendLine(line);
            lock.lock();
            if (!alive)
                return; // peer went away
        }
        if (entry->finished() || stopping)
            return;
        eventsCv.wait(lock);
    }
}

void
SweepServer::appendEvent(RunEntry &entry, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        entry.events.push_back(std::move(line));
    }
    eventsCv.notify_all();
}

void
SweepServer::workerLoop()
{
    for (;;) {
        RunEntry *entry = nullptr;
        {
            std::unique_lock<std::mutex> lock(stateMutex);
            workCv.wait(lock, [&] {
                return stopping || (!holding && !queue.empty());
            });
            if (stopping)
                return;
            const std::optional<QueuedRun> next = queue.dequeue();
            if (!next)
                continue;
            entry = runs.at(next->id).get();
            entry->state = "running";
            entry->startedNs = PhaseTimer::nowNs();
            entry->events.push_back("{\"kind\":\"state\",\"state\":"
                                    "\"running\"}");
            activeRunId = entry->id;

            const std::uint64_t wait_ns =
                entry->startedNs > entry->submittedNs
                    ? entry->startedNs - entry->submittedNs : 0;
            queueWaitHist.add(latencyBucket(wait_ns));
            queueWaitSumSeconds +=
                static_cast<double>(wait_ns) / 1e9;

            JournalEvent event;
            event.kind = "started";
            event.runId = entry->id;
            journalAppend(std::move(event));
        }
        eventsCv.notify_all();
        logEvent(LogLevel::Info, "serve.run.started")
            .field("run", entry->id)
            .field("name", entry->name);
        executeRun(*entry);
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            activeRunId = 0;
        }
    }
}

void
SweepServer::executeRun(RunEntry &entry)
{
    std::string final_state = "done";
    std::string error;
    std::string artifacts;
    std::size_t executed_cells = 0;
    SweepOutcome outcome;
    try {
        const SweepSpec spec = parseSweepSpec(entry.specText);
        const SweepPlan plan = expandSweep(spec);

        SweepOptions options;
        options.jobs = config.jobs;
        options.cache = config.cache;
        options.cancel = &entry.cancel;
        options.runLabel = "run " + std::to_string(entry.id);
        options.onProgress = [&](const GridProgress &progress) {
            std::ostringstream os;
            JsonWriter writer(os);
            writer.beginObject()
                .key("kind").value("progress")
                .key("completed").value(static_cast<std::uint64_t>(
                    progress.completedCells))
                .key("total").value(static_cast<std::uint64_t>(
                    progress.totalCells))
                .key("cell").value(progress.cell.traceName)
                .key("scheme").value(progress.cell.scheme)
                .key("refs").value(progress.cell.refs)
                .key("cache_hit").value(progress.cell.cacheHit)
                .endObject();
            appendEvent(entry, os.str());

            std::lock_guard<std::mutex> lock(stateMutex);
            JournalEvent event;
            event.kind = "cell";
            event.runId = entry.id;
            event.cellLabel = progress.cell.traceName;
            event.scheme = progress.cell.scheme;
            event.refs = progress.cell.refs;
            event.cacheHit = progress.cell.cacheHit;
            journalAppend(std::move(event));
        };

        outcome = runSweep(plan, options);
        executed_cells = outcome.records.size();
        if (outcome.completed) {
            std::ostringstream os;
            JsonlSink sink(os);
            writeSweepArtifacts(outcome, sink);
            artifacts = os.str();
        } else {
            final_state = "cancelled";
        }
    } catch (const SimulationError &failure) {
        final_state = "failed";
        error = failure.what();
    } catch (const std::exception &failure) {
        final_state = "failed";
        error = failure.what();
    }

    {
        std::lock_guard<std::mutex> lock(stateMutex);
        entry.state = final_state;
        entry.error = error;
        entry.artifacts = std::move(artifacts);
        entry.timings = std::move(outcome.timings);
        entry.finishedNs = PhaseTimer::nowNs();

        const std::uint64_t duration_ns =
            entry.finishedNs > entry.startedNs
                ? entry.finishedNs - entry.startedNs : 0;
        runDurationHist.add(latencyBucket(duration_ns));
        runDurationSumSeconds +=
            static_cast<double>(duration_ns) / 1e9;
        totalCacheHits += outcome.cacheHits;
        totalCacheMisses += outcome.cacheMisses;
        totalSimulatedRefs += outcome.simulatedRefs;
        totalCellsCompleted += executed_cells;
        totalRunWallSeconds += outcome.wallSeconds;
        sweepMetrics.merge(outcome.metrics);

        std::ostringstream os;
        JsonWriter writer(os);
        writer.beginObject()
            .key("kind").value("state")
            .key("state").value(final_state)
            .key("cells").value(
                static_cast<std::uint64_t>(executed_cells));
        if (!error.empty())
            writer.key("error").value(error);
        writer.endObject();
        entry.events.push_back(os.str());

        JournalEvent event;
        event.kind = "finished";
        event.runId = entry.id;
        event.state = final_state;
        event.error = error;
        event.cellsTotal = executed_cells;
        journalAppend(std::move(event));
    }
    eventsCv.notify_all();
    logEvent(LogLevel::Info, "serve.run.finished")
        .field("run", entry.id)
        .field("state", final_state)
        .field("cells",
               static_cast<std::uint64_t>(executed_cells))
        .field("cache_hits", outcome.cacheHits)
        .field("wall_seconds", outcome.wallSeconds);
}

} // namespace dirsim
