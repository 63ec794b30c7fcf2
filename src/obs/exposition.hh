/**
 * @file
 * Prometheus text exposition (format version 0.0.4) for dirsim
 * metrics.
 *
 * The daemon's GET /metrics endpoint renders two kinds of state:
 *
 *  - any MetricRegistry (obs/metrics.hh) via writePrometheus():
 *    counters and gauges map directly; timers render as a summary
 *    family (_count/_sum) plus _min/_max gauges. Dotted registry
 *    names are sanitized into the Prometheus grammar
 *    ("sim.pops.Dir0B.events.rd_hit" ->
 *    "sim_pops_Dir0B_events_rd_hit").
 *
 *  - hand-labelled service metrics via PromWriter: request counters
 *    by {endpoint, status}, and the queue-wait and run-duration
 *    Histograms with *cumulative* buckets — the waiting-time and
 *    service-time distributions the bus service-discipline
 *    literature asks for, not just means.
 *
 * lintPrometheusText() is the format gate the tests (and operators)
 * run over any exposition body: metric-name/label grammar, value
 * syntax, TYPE placement, family/sample name agreement, duplicate
 * samples, histogram bucket cumulativity and the +Inf == _count
 * invariant. An empty problem list means scrapers will accept the
 * body.
 */

#ifndef DIRSIM_OBS_EXPOSITION_HH
#define DIRSIM_OBS_EXPOSITION_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dirsim
{

class Histogram;
class MetricRegistry;

/**
 * Sanitize an arbitrary dotted metric name into the Prometheus
 * grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every other character (dots
 * included) becomes '_', a leading digit gains a '_' prefix, and an
 * empty input becomes "_".
 */
std::string promMetricName(std::string_view name);

/** Escape a label value for "..." quoting: backslash, double quote,
 *  and newline get backslash escapes. */
std::string promEscapeLabelValue(std::string_view value);

/** One sample label. Names must already satisfy the label grammar
 *  [a-zA-Z_][a-zA-Z0-9_]*; values are escaped on output. */
struct PromLabel
{
    std::string name;
    std::string value;
};

/**
 * A streaming exposition-format writer. Callers group output by
 * family: one type() line, then that family's samples.
 */
class PromWriter
{
  public:
    explicit PromWriter(std::ostream &os_arg) : os(os_arg) {}

    /** "# HELP <name> <help>" (help is single-line escaped). */
    void help(const std::string &name, std::string_view text);

    /** "# TYPE <name> counter|gauge|histogram|summary|untyped". */
    void type(const std::string &name, const char *type_name);

    /** One sample line: name{labels} value. */
    void sample(const std::string &name,
                const std::vector<PromLabel> &labels, double value);
    void sample(const std::string &name,
                const std::vector<PromLabel> &labels,
                std::uint64_t value);

    /**
     * A full histogram family body (the TYPE line is the caller's):
     * cumulative <name>_bucket{le="..."} samples — one per bound,
     * the one for @p upper_bounds[i] counting @p hist's buckets 0..i
     * — a closing le="+Inf" bucket equal to the sample total, then
     * <name>_sum (@p sum, in the same unit as the bounds) and
     * <name>_count. Buckets at or past upper_bounds.size() count
     * only in +Inf.
     *
     * @throws UsageError when @p upper_bounds is not strictly
     *         increasing
     */
    void histogram(const std::string &name,
                   const std::vector<PromLabel> &labels,
                   const Histogram &hist,
                   const std::vector<double> &upper_bounds,
                   double sum);

  private:
    std::ostream &os;
};

/**
 * Render a whole registry. Names are sanitized with
 * promMetricName(@p prefix + "." + name); a sanitized-name collision
 * (two dotted names mapping to one exposition family) keeps the
 * first family and skips later ones with a comment, so the output
 * always lints clean.
 */
void writePrometheus(std::ostream &os, const MetricRegistry &registry,
                     const std::string &prefix = {});

/**
 * Validate an exposition body. Returns one human-readable problem
 * per violated rule (line numbers included); empty means the text
 * parses as Prometheus text format 0.0.4.
 */
std::vector<std::string> lintPrometheusText(const std::string &text);

} // namespace dirsim

#endif // DIRSIM_OBS_EXPOSITION_HH
