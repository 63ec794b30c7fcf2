/** @file Unit tests for obs/histogram.hh (FixedHistogram). */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/histogram.hh"

namespace dirsim
{
namespace
{

/** writeJson -> parse -> fromJson. */
FixedHistogram
roundTrip(const FixedHistogram &histogram)
{
    std::ostringstream out;
    JsonWriter writer(out);
    histogram.writeJson(writer);
    return FixedHistogram::fromJson(JsonValue::parse(out.str()));
}

TEST(FixedHistogramTest, StartsEmpty)
{
    const FixedHistogram histogram(8);
    EXPECT_TRUE(histogram.empty());
    EXPECT_EQ(histogram.samples(), 0u);
    EXPECT_EQ(histogram.overflow(), 0u);
    EXPECT_EQ(histogram.bucketCount(), 8u);
    EXPECT_EQ(histogram.maxNonZero(), 0u);
    EXPECT_DOUBLE_EQ(histogram.fraction(0), 0.0);
}

TEST(FixedHistogramTest, EmptyJsonRoundTrip)
{
    const FixedHistogram empty(0);
    const FixedHistogram back = roundTrip(empty);
    EXPECT_EQ(back, empty);
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(back.bucketCount(), 0u);

    // An empty histogram with buckets keeps its shape through JSON.
    const FixedHistogram shaped(5);
    EXPECT_EQ(roundTrip(shaped), shaped);
}

TEST(FixedHistogramTest, CountsAndFractions)
{
    FixedHistogram histogram(4);
    histogram.add(0);
    histogram.add(1, 2);
    histogram.add(3);
    EXPECT_EQ(histogram.samples(), 4u);
    EXPECT_EQ(histogram.count(0), 1u);
    EXPECT_EQ(histogram.count(1), 2u);
    EXPECT_EQ(histogram.count(2), 0u);
    EXPECT_EQ(histogram.count(3), 1u);
    EXPECT_EQ(histogram.maxNonZero(), 3u);
    EXPECT_DOUBLE_EQ(histogram.fraction(1), 0.5);
    EXPECT_EQ(histogram.count(99), 0u); // out of range, not a throw
}

TEST(FixedHistogramTest, LargeValuesLandInOverflow)
{
    FixedHistogram histogram(4);
    histogram.add(3);   // last regular bucket
    histogram.add(4);   // first overflowing value
    histogram.add(100, 2);
    EXPECT_EQ(histogram.count(3), 1u);
    EXPECT_EQ(histogram.overflow(), 3u);
    EXPECT_EQ(histogram.samples(), 4u);
    EXPECT_EQ(roundTrip(histogram), histogram);
}

TEST(FixedHistogramTest, MergeAccumulates)
{
    FixedHistogram a(4);
    a.add(1);
    a.add(7); // overflow
    FixedHistogram b(4);
    b.add(1, 2);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(1), 3u);
    EXPECT_EQ(a.count(2), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.samples(), 5u);
}

TEST(FixedHistogramTest, MergeRejectsBucketCountMismatch)
{
    FixedHistogram a(4);
    FixedHistogram b(8);
    EXPECT_THROW(a.merge(b), UsageError);
    // The failed merge must not have touched the target.
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.bucketCount(), 4u);
}

TEST(FixedHistogramTest, FromJsonRejectsInconsistentSamples)
{
    // samples != sum(buckets) + overflow is a corrupt record.
    const JsonValue bad = JsonValue::parse(
        "{\"buckets\": [1, 2], \"overflow\": 0, \"samples\": 7}");
    EXPECT_THROW(FixedHistogram::fromJson(bad), UsageError);
    EXPECT_THROW(
        FixedHistogram::fromJson(JsonValue::parse("{\"x\": 1}")),
        UsageError);
}

} // namespace
} // namespace dirsim
