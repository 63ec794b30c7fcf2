/**
 * @file
 * Fixed-bucket distribution histograms for the event tracer and the
 * daemon's latency metrics.
 *
 * Unlike the growable dense common/histogram.hh (which sizes itself
 * to the data and is subtractable for warm-up discard), a
 * FixedHistogram has a bucket count fixed at construction plus one
 * overflow bucket, so merging across grid cells and serializing to
 * the metric registry needs no renegotiation of shapes: two
 * histograms merge iff their bucket counts match (anything else is a
 * caller bug and throws).
 *
 * The tracer (obs/tracer.hh) keeps its write-run-length distribution
 * in one of these per cell session and merges them into a per-run
 * total; dirsim_serve keeps its queue-wait and run-duration
 * histograms in them for /metrics.
 */

#ifndef DIRSIM_OBS_HISTOGRAM_HH
#define DIRSIM_OBS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace dirsim
{

class JsonWriter;
class JsonValue;

/** Default bucket count of the tracer's distributions: values
 *  0..63 resolve exactly, larger ones land in the overflow bucket. */
inline constexpr std::size_t traceDistBuckets = 64;

/** A histogram over [0, bucketCount) with an overflow bucket. */
class FixedHistogram
{
  public:
    /** @param num_buckets regular buckets (0 = overflow-only) */
    explicit FixedHistogram(std::size_t num_buckets = 0)
        : counts(num_buckets, 0)
    {}

    /** Record @p count samples of @p value (>= bucketCount()
     *  overflows). */
    void add(std::uint64_t value, std::uint64_t count = 1);

    /** Count in regular bucket @p value (0 when out of range). */
    std::uint64_t count(std::uint64_t value) const;

    /** Samples that exceeded the largest regular bucket. */
    std::uint64_t overflow() const { return overflowCount; }

    /** Total samples recorded (regular + overflow). */
    std::uint64_t samples() const { return total; }

    /** Number of regular buckets. */
    std::size_t bucketCount() const { return counts.size(); }

    bool empty() const { return total == 0; }

    /** Fraction of all samples in regular bucket @p value. */
    double fraction(std::uint64_t value) const;

    /** Largest regular bucket with a nonzero count (0 when none). */
    std::uint64_t maxNonZero() const;

    /**
     * Accumulate another histogram.
     *
     * @throws UsageError when the bucket counts differ — the shapes
     *         were fixed at construction and silently widening one
     *         would misattribute overflow mass
     */
    void merge(const FixedHistogram &other);

    /**
     * Serialize as {"buckets": [...], "overflow": n, "samples": n}.
     * Empty histograms (zero buckets, zero samples) round-trip.
     */
    void writeJson(JsonWriter &writer) const;

    /** Rebuild from writeJson() output.
     *  @throws UsageError on malformed input or a samples total that
     *          does not match the buckets */
    static FixedHistogram fromJson(const JsonValue &json);

    bool operator==(const FixedHistogram &) const = default;

  private:
    std::vector<std::uint64_t> counts;
    std::uint64_t overflowCount = 0;
    std::uint64_t total = 0;
};

} // namespace dirsim

#endif // DIRSIM_OBS_HISTOGRAM_HH
