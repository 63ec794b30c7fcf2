/**
 * @file
 * SweepServer: the dirsim_serve daemon core.
 *
 * A loopback HTTP/1.1 service that accepts sweep specs over POST,
 * queues them round-robin across clients (serve/discipline.hh),
 * executes them one at a time on the sweep engine (sweep/run.hh),
 * streams per-cell progress as JSONL, and serves finished artifacts
 * and artifact diffs. The HTTP surface
 * (docs/sweep.md, "The HTTP surface"):
 *
 *   GET  /                      service status + queue depth
 *   GET  /status                operational detail: active run,
 *                               uptime, journal path, run counts
 *   GET  /metrics               Prometheus text exposition
 *                               (obs/exposition.hh): daemon self-
 *                               metrics + merged sweep metrics
 *   POST /runs                  submit a spec (body = spec JSON);
 *                               202 {"id",...} | 400 | 429
 *   GET  /runs                  all runs, oldest first
 *   GET  /runs/{id}             one run's status
 *   GET  /runs/{id}/events      JSONL progress stream until the run
 *                               finishes (Connection: close framing)
 *   GET  /runs/{id}/artifacts   the finished results.jsonl
 *   GET  /runs/{id}/trace       Chrome trace_event timeline of the
 *                               run: queue wait, execution, per-cell
 *                               slices, HTTP requests
 *   GET  /runs/{id}/diff/{id2}  diffArtifacts() of two finished runs
 *   POST /runs/{id}/cancel      cancel (queued or running)
 *   POST /admin/release         release a --hold'ed worker
 *   POST /shutdown              stop the daemon
 *
 * With a journal directory configured (--journal), every run state
 * transition is appended to a persistent JSONL journal
 * (obs/journal.hh) and replayed on startup, so a restarted daemon
 * lists its predecessors' runs — runs that were in flight when the
 * process died come back as "interrupted", and resubmitting their
 * spec resumes from the cell cache.
 *
 * Degradation is graceful by construction: a malformed spec is a 400
 * with the parser's diagnostic, a full queue is a 429 (the submitter
 * retries later; the daemon keeps serving), a cancelled run stops at
 * the next cell boundary, a corrupt journal record is skipped with a
 * warning, and every handler failure is a response, never a crash.
 *
 * Identity for the round-robin queue comes from the X-Dirsim-Client
 * request header (absent = one shared anonymous identity, served in
 * arrival order).
 */

#ifndef DIRSIM_SERVE_SERVER_HH
#define DIRSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "obs/chrome_trace.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "serve/discipline.hh"
#include "serve/http.hh"
#include "sim/job.hh"
#include "sim/runner.hh"

namespace dirsim
{

/** SweepServer knobs (dirsim_serve's flags). */
struct ServeConfig
{
    /** Listen port; 0 binds an ephemeral port (read it back via
     *  SweepServer::port()). */
    std::uint16_t port = 0;

    /** Queued-run bound; submissions past it get 429. */
    std::size_t queueCapacity = 8;

    /** Worker threads per sweep (SweepOptions::jobs; 0 = default). */
    unsigned jobs = 0;

    /**
     * Start with the worker held: submissions queue but nothing
     * executes until POST /admin/release. Lets tests (and batch
     * operators) stage a backlog deterministically.
     */
    bool hold = false;

    /** Cell cache shared by every run; nullptr = simulate always. */
    std::shared_ptr<CellCache> cache;

    /** Journal directory (obs/journal.hh); empty = no persistence.
     *  Created on start when absent. */
    std::string journalDir;
};

/** The daemon: listener + per-connection handlers + one sweep
 *  worker. */
class SweepServer
{
  public:
    explicit SweepServer(ServeConfig config_arg = {});
    ~SweepServer();

    SweepServer(const SweepServer &) = delete;
    SweepServer &operator=(const SweepServer &) = delete;

    /** Replay the journal (when configured), bind the port, and
     *  start the accept + worker threads.
     *  @throws UsageError when the port cannot be bound */
    void start();

    /** Stop accepting, cancel the running sweep, join every thread.
     *  Idempotent. */
    void stop();

    /** The bound port (valid after start()). */
    std::uint16_t port() const;

    /** Block until POST /shutdown (or stop()) — the daemon main's
     *  wait. */
    void waitForShutdown();

  private:
    /** One submitted run's full lifecycle. */
    struct RunEntry
    {
        std::uint64_t id = 0;
        std::string client;
        std::string specText;
        std::string name;  ///< the spec's campaign name
        std::string state = "queued"; ///< queued|running|done|failed|
                                      ///< cancelled|interrupted
        std::string error;
        std::string artifacts; ///< results.jsonl once done
        std::vector<std::string> events; ///< JSONL progress lines
        std::atomic<bool> cancel{false};

        std::uint64_t cellsTotal = 0;

        /** Lifecycle stamps on the PhaseTimer::nowNs() clock (0 =
         *  the transition never happened this process). */
        std::uint64_t submittedNs = 0;
        std::uint64_t startedNs = 0;
        std::uint64_t finishedNs = 0;

        /** Wall-clock layout of the executed cells, for
         *  GET /runs/{id}/trace. */
        std::vector<CellTiming> timings;

        /** True when this entry was reconstructed from the journal
         *  by a restarted daemon. */
        bool recovered = false;

        bool finished() const
        {
            return state != "queued" && state != "running";
        }
    };

    void acceptLoop();
    void handleConnection(int fd);
    void workerLoop();
    void executeRun(RunEntry &entry);
    void appendEvent(RunEntry &entry, std::string line);
    void replayJournalLocked();
    void journalAppend(JournalEvent event);
    void recordRequest(const std::string &pattern, int status,
                       std::uint64_t start_ns);

    HttpResponse handle(const HttpRequest &request,
                        HttpConnection &connection,
                        bool &responded);
    HttpResponse handleSubmit(const HttpRequest &request);
    HttpResponse handleStatus(std::uint64_t id);
    HttpResponse handleList();
    HttpResponse handleArtifacts(std::uint64_t id);
    HttpResponse handleDiff(std::uint64_t a, std::uint64_t b);
    HttpResponse handleCancel(std::uint64_t id);
    HttpResponse handleServiceStatus();
    HttpResponse handleMetrics();
    HttpResponse handleTrace(std::uint64_t id);
    void streamEvents(std::uint64_t id, HttpConnection &connection);

    ServeConfig config;

    std::unique_ptr<HttpListener> listener;
    std::thread acceptThread;
    std::thread workerThread;
    std::vector<std::thread> handlers; ///< guarded by stateMutex

    mutable std::mutex stateMutex;
    std::condition_variable workCv;   ///< worker: queue/stop changes
    std::condition_variable eventsCv; ///< streamers: event appends
    std::condition_variable stopCv;   ///< waitForShutdown
    RoundRobinDiscipline queue;
    std::map<std::uint64_t, std::unique_ptr<RunEntry>> runs;
    std::uint64_t nextId = 1;
    bool holding = false;
    bool stopping = false;
    bool started = false;

    // --- persistence + telemetry (all guarded by stateMutex) ---

    std::unique_ptr<RunJournal> journal;
    std::uint64_t serverStartNs = 0;
    std::uint64_t activeRunId = 0; ///< 0 = worker idle

    /** Request counters keyed by (endpoint pattern, status). */
    std::map<std::pair<std::string, std::string>, std::uint64_t>
        requestCounts;

    /** Queue-wait / run-duration distributions, log2-millisecond
     *  buckets (serve/server.cc latencyBucket()). */
    Histogram queueWaitHist;
    Histogram runDurationHist;
    double queueWaitSumSeconds = 0.0;
    double runDurationSumSeconds = 0.0;

    /** Aggregate sweep effort across finished runs. */
    std::uint64_t totalCacheHits = 0;
    std::uint64_t totalCacheMisses = 0;
    std::uint64_t totalSimulatedRefs = 0;
    std::uint64_t totalCellsCompleted = 0;
    double totalRunWallSeconds = 0.0;

    /** Per-run sweep metrics merged across finished runs. */
    MetricRegistry sweepMetrics;

    /** Recent HTTP request spans for GET /runs/{id}/trace (bounded
     *  ring, oldest dropped). */
    std::vector<TraceSpan> httpSpans;
};

} // namespace dirsim

#endif // DIRSIM_SERVE_SERVER_HH
