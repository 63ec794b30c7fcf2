/**
 * @file
 * Leveled structured (JSONL) logging for long-lived dirsim services.
 *
 * common/logging.hh covers *errors* (typed exceptions); this header
 * covers *events*: a daemon that serves traffic for days needs
 * machine-parseable diagnostics, not ad-hoc prose. Every emitted
 * line is one JSON object:
 *
 *   {"ts":"2026-08-08T12:34:56Z","mono_ns":123456789,
 *    "level":"info","event":"serve.run.finished",
 *    "run":3,"state":"done","wall_seconds":1.25}
 *
 * "ts" is wall-clock UTC (for humans and cross-host correlation);
 * "mono_ns" is the PhaseTimer::nowNs() monotonic clock every other
 * dirsim timestamp uses, so log lines line up with run journals and
 * Chrome traces.
 *
 * Usage is a fluent builder that emits on destruction:
 *
 *   logEvent(LogLevel::Info, "serve.start")
 *       .field("port", port).field("queue_capacity", capacity);
 *
 * A disabled level costs one atomic load; field formatting is
 * skipped entirely. The sink is stderr by default, or an append-mode
 * file; configuration comes from DIRSIM_LOG_LEVEL (debug|info|warn|
 * error|off, default info) and DIRSIM_LOG_FILE (path, default
 * stderr). Lines are written atomically under one mutex, so
 * concurrent threads never interleave.
 */

#ifndef DIRSIM_COMMON_LOG_HH
#define DIRSIM_COMMON_LOG_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace dirsim
{

/** Log severity, least to most severe. Off disables everything. */
enum class LogLevel : unsigned
{
    Debug = 0,
    Info,
    Warn,
    Error,
    Off,
};

/** Lower-case level name ("debug", "info", "warn", "error", "off"). */
const char *toString(LogLevel level);

/** Parse a level name. @throws UsageError on unknown names */
LogLevel parseLogLevel(std::string_view text);

/**
 * The process-wide structured log sink.
 *
 * Thread-safe. configure() may be called at any time (a daemon
 * re-pointing the sink at a file); emitted lines always go to the
 * sink configured at emit time.
 */
class StructuredLog
{
  public:
    /** The singleton, lazily configured from DIRSIM_LOG_LEVEL /
     *  DIRSIM_LOG_FILE on first use. */
    static StructuredLog &global();

    /** True when @p level would be emitted (cheap: one atomic
     *  load). */
    bool
    enabled(LogLevel level) const
    {
        return static_cast<unsigned>(level)
            >= threshold.load(std::memory_order_relaxed)
            && level != LogLevel::Off;
    }

    LogLevel
    level() const
    {
        return static_cast<LogLevel>(
            threshold.load(std::memory_order_relaxed));
    }

    /** Set the emission threshold. */
    void setLevel(LogLevel level);

    /**
     * Send lines to @p path (append mode; created if absent). An
     * empty path restores stderr.
     *
     * @throws UsageError when the file cannot be opened
     */
    void setFile(const std::string &path);

    /** The active sink path ("" = stderr). */
    std::string file() const;

    /** Re-read DIRSIM_LOG_LEVEL / DIRSIM_LOG_FILE. @throws
     *  UsageError on malformed values */
    void configureFromEnvironment();

    /** Write one complete line (no trailing newline) atomically. */
    void writeLine(const std::string &line);

  private:
    StructuredLog();

    std::atomic<unsigned> threshold{
        static_cast<unsigned>(LogLevel::Info)};
    mutable std::mutex sinkMutex;
    std::unique_ptr<std::ostream> owned; ///< file sink when set
    std::string ownedPath;
};

/**
 * One structured log line under construction. Emits on destruction;
 * all field formatting is skipped when the level is disabled.
 */
class LogEvent
{
  public:
    LogEvent(LogLevel level_arg, std::string_view event);
    ~LogEvent();

    LogEvent(const LogEvent &) = delete;
    LogEvent &operator=(const LogEvent &) = delete;

    LogEvent &field(std::string_view key, std::string_view value);
    LogEvent &field(std::string_view key, const char *value);
    LogEvent &field(std::string_view key, std::uint64_t value);
    LogEvent &field(std::string_view key, std::int64_t value);
    LogEvent &field(std::string_view key, unsigned value);
    LogEvent &field(std::string_view key, int value);
    LogEvent &field(std::string_view key, double value);
    LogEvent &field(std::string_view key, bool value);

    bool live() const { return active; }

  private:
    void keyPrefix(std::string_view key);

    bool active;
    std::ostringstream line;
};

/** Begin a structured log line (emitted when the returned builder
 *  goes out of scope). */
inline LogEvent
logEvent(LogLevel level, std::string_view event)
{
    return LogEvent(level, event);
}

/** Wall-clock UTC "2026-08-08T12:34:56Z" (shared with manifests). */
std::string logTimestampUtc();

} // namespace dirsim

#endif // DIRSIM_COMMON_LOG_HH
