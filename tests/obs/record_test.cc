/** @file Unit tests for obs/record.hh. */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "obs/record.hh"
#include "sim/simulator.hh"
#include "tracegen/generator.hh"

namespace dirsim
{
namespace
{

/** A real simulated cell to capture records from. */
CellRecord
sampleRecord()
{
    static const CellRecord record = [] {
        const Trace trace = generateTrace("pops", 20'000, 11);
        const SimResult result = simulateTrace(trace, parseScheme("Dir0B"));
        CellTiming timing;
        timing.scheme = result.scheme;
        timing.traceName = result.traceName;
        timing.refs = result.totalRefs;
        timing.wallSeconds = 0.125;
        return CellRecord::fromCell(result, timing, "/tmp/pops.trace");
    }();
    return record;
}

TEST(EventKeyTest, SanitizesLegendStrings)
{
    EXPECT_EQ(eventKey(EventType::Instr), "instr");
    EXPECT_EQ(eventKey(EventType::RdMiss), "rd_miss");
    EXPECT_EQ(eventKey(EventType::RmBlkCln), "rm_blk_cln");
    EXPECT_EQ(eventKey(EventType::WrtHit), "wrt_hit");
    EXPECT_EQ(eventKey(EventType::WmFirstRef), "wm_first_ref");
}

TEST(OpFieldsTest, CoversEveryOpCounter)
{
    // 11 named fields; each member pointer must be distinct.
    const auto &fields = opFields();
    ASSERT_EQ(fields.size(), 11u);
    OpCounts ops;
    std::uint64_t next = 1;
    for (const auto &[name, member] : fields)
        ops.*member = next++;
    // All 11 slots must have kept their distinct values.
    next = 1;
    for (const auto &[name, member] : fields)
        EXPECT_EQ(ops.*member, next++) << name;
}

TEST(CellRecordTest, FromCellCapturesEverything)
{
    const CellRecord record = sampleRecord();
    EXPECT_EQ(record.scheme, "Dir0B");
    EXPECT_EQ(record.trace, "pops");
    EXPECT_EQ(record.tracePath, "/tmp/pops.trace");
    EXPECT_GT(record.numCaches, 0u);
    EXPECT_GT(record.totalRefs, 0u);
    EXPECT_GT(record.events.count(EventType::Instr), 0u);
    EXPECT_DOUBLE_EQ(record.wallSeconds, 0.125);
    EXPECT_GT(record.phases.get(Phase::Simulate), 0u);
    EXPECT_GT(record.refsPerSecond(), 0.0);
}

TEST(CellRecordTest, ToSimResultRoundTrips)
{
    const CellRecord record = sampleRecord();
    const SimResult result = record.toSimResult();
    EXPECT_EQ(result.scheme, record.scheme);
    EXPECT_EQ(result.traceName, record.trace);
    EXPECT_EQ(result.numCaches, record.numCaches);
    EXPECT_EQ(result.totalRefs, record.totalRefs);
    EXPECT_TRUE(result.events == record.events);
    EXPECT_TRUE(result.ops == record.ops);
    EXPECT_TRUE(result.cleanWriteHolders == record.cleanWriteHolders);
    EXPECT_TRUE(result.phases == record.phases);
}

TEST(CellRecordTest, JsonRoundTripIsLossless)
{
    const CellRecord record = sampleRecord();
    std::ostringstream os;
    JsonWriter writer(os);
    record.writeJson(writer);

    const CellRecord loaded =
        CellRecord::fromJson(JsonValue::parse(os.str()));
    EXPECT_EQ(loaded.scheme, record.scheme);
    EXPECT_EQ(loaded.trace, record.trace);
    EXPECT_EQ(loaded.tracePath, record.tracePath);
    EXPECT_EQ(loaded.numCaches, record.numCaches);
    EXPECT_EQ(loaded.totalRefs, record.totalRefs);
    EXPECT_TRUE(loaded.events == record.events);
    EXPECT_TRUE(loaded.ops == record.ops);
    EXPECT_TRUE(loaded.cleanWriteHolders == record.cleanWriteHolders);
    EXPECT_TRUE(loaded.phases == record.phases);
    EXPECT_DOUBLE_EQ(loaded.wallSeconds, record.wallSeconds);
    // Derived values agree because the raw counters round-tripped.
    EXPECT_DOUBLE_EQ(loaded.cost(paperPipelinedCosts()).total(),
                     record.cost(paperPipelinedCosts()).total());
}

TEST(CellRecordTest, FromJsonRejectsMissingFields)
{
    EXPECT_THROW(
        CellRecord::fromJson(JsonValue::parse("{\"kind\":\"cell\"}")),
        UsageError);
    EXPECT_THROW(CellRecord::fromJson(JsonValue::parse("[]")),
                 UsageError);
}

TEST(ToSchemeResultsTest, RegroupsByFirstAppearance)
{
    CellRecord a = sampleRecord();
    CellRecord b = a;
    b.trace = "thor";
    CellRecord c = a;
    c.scheme = "WTI";
    // Grid order: Dir0B/pops, Dir0B/thor, WTI/pops.
    const auto grid = toSchemeResults({a, b, c});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid[0].scheme, "Dir0B");
    ASSERT_EQ(grid[0].perTrace.size(), 2u);
    EXPECT_EQ(grid[0].perTrace[1].traceName, "thor");
    EXPECT_EQ(grid[1].scheme, "WTI");
    ASSERT_EQ(grid[1].perTrace.size(), 1u);
}

} // namespace
} // namespace dirsim
