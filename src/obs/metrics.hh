/**
 * @file
 * MetricRegistry: one hierarchical namespace for every number a run
 * produces.
 *
 * The simulator counts in typed containers — the fixed-enum
 * EventCounts/OpCounts and the Figure 1 Histogram — each with its
 * own merge conventions. MetricRegistry gives every number a run
 * reports one namespace of dotted hierarchical names
 * ("sim.pops.Dir0B.events.wm_blk_cln", "runner.cell.wall_ms") with
 * three metric types:
 *
 *  - counter: monotonically accumulated u64 (event/op counts)
 *  - gauge:   last-written double (wall seconds, refs/sec, jobs)
 *  - timer:   summary of u64 samples (count/sum/min/max), suitable
 *             for per-cell wall times without dense-histogram memory
 *
 * Metrics iterate in name order for stable output, merge across
 * registries (grid cells, repeated runs), and serialize to JSON for
 * the JSONL sink (obs/sink.hh).
 */

#ifndef DIRSIM_OBS_METRICS_HH
#define DIRSIM_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace dirsim
{

class JsonWriter;
class JsonValue;

/** What a registry entry measures. */
enum class MetricKind
{
    Counter,
    Gauge,
    Timer,
};

/** Human-readable metric kind ("counter", "gauge", "timer"). */
const char *toString(MetricKind kind);

/** Summary statistics of a timer metric's samples. */
struct TimerStats
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;

    double
    mean() const
    {
        return count == 0
            ? 0.0
            : static_cast<double>(sum) / static_cast<double>(count);
    }

    void observe(std::uint64_t sample);
    void merge(const TimerStats &other);

    bool operator==(const TimerStats &) const = default;
};

/** One named metric: its kind plus the kind's payload. */
struct Metric
{
    MetricKind kind = MetricKind::Counter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    TimerStats timer;

    bool operator==(const Metric &) const = default;
};

/**
 * An ordered registry of named metrics.
 *
 * Names are dotted hierarchies: non-empty segments of
 * [A-Za-z0-9_-] joined by '.', e.g. "sim.pops.Dir0B.events.rd_hit".
 * A name is bound to the kind of its first use; re-using it with a
 * different kind throws UsageError (catching, e.g., a counter and a
 * gauge colliding on one name).
 */
class MetricRegistry
{
  public:
    /** Add @p delta to counter @p name, creating it at zero. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Set gauge @p name to @p value. */
    void set(const std::string &name, double value);

    /** Record one sample into timer @p name. */
    void observe(const std::string &name, std::uint64_t sample);

    /** Counter value; 0 when absent. @throws UsageError on kind
     *  mismatch */
    std::uint64_t counter(const std::string &name) const;

    /** Gauge value; 0 when absent. @throws UsageError on kind
     *  mismatch */
    double gauge(const std::string &name) const;

    /** Timer summary; empty when absent. @throws UsageError on kind
     *  mismatch */
    TimerStats timer(const std::string &name) const;

    bool has(const std::string &name) const;

    /**
     * Merge another registry: counters add, gauges take the other's
     * value, timers combine their summaries. Merging a registry into
     * itself is a no-op (the values are already here).
     *
     * @throws UsageError when a shared name has different kinds
     */
    void merge(const MetricRegistry &other);

    /** Name-ordered iteration. */
    auto begin() const { return entries.begin(); }
    auto end() const { return entries.end(); }
    std::size_t size() const { return entries.size(); }

    /**
     * Serialize as one JSON object: name -> {"kind": ..., value
     * fields}. Stable (name-ordered) output.
     */
    void writeJson(JsonWriter &writer) const;

    /** Rebuild a registry from writeJson() output. */
    static MetricRegistry fromJson(const JsonValue &json);

    /** @throws UsageError unless @p name is a valid metric name */
    static void checkName(const std::string &name);

    /**
     * Make an externally-sourced string (a trace file stem, a scheme
     * label) safe to embed as ONE dotted-name segment: every
     * character outside [A-Za-z0-9_-] — including '.' — becomes '_',
     * and an empty input becomes "_". Without this, a trace named
     * "app.bin" would split into two segments and collide with
     * genuinely nested names.
     */
    static std::string escapeSegment(std::string_view text);

  private:
    Metric &entry(const std::string &name, MetricKind kind);
    const Metric *lookup(const std::string &name,
                         MetricKind kind) const;

    std::map<std::string, Metric> entries;
};

} // namespace dirsim

#endif // DIRSIM_OBS_METRICS_HH
