/** @file Unit tests for sweep/expand.hh: cross-product expansion. */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sweep/expand.hh"

namespace dirsim
{
namespace
{

SweepSpec
baseSpec()
{
    return parseSweepSpec(
        R"({"name":"x","schemes":["Dir0B","WTI"],)"
        R"("traces":[{"profile":"pops","refs":20000,"seed":5}]})");
}

TEST(SweepExpandTest, CrossProductInTraceMajorOrder)
{
    SweepSpec spec = baseSpec();
    spec.blockBytes = {16, 32};
    const SweepPlan plan = expandSweep(spec);
    ASSERT_EQ(plan.traces.size(), 1u);
    ASSERT_EQ(plan.schemes.size(), 2u);
    ASSERT_EQ(plan.cells.size(), 4u);
    // Trace-major: trace, then scheme, then block.
    EXPECT_EQ(plan.cells[0].scheme.name(), "Dir0B");
    EXPECT_EQ(plan.cells[0].blockBytes, 16u);
    EXPECT_EQ(plan.cells[1].scheme.name(), "Dir0B");
    EXPECT_EQ(plan.cells[1].blockBytes, 32u);
    EXPECT_EQ(plan.cells[2].scheme.name(), "WTI");
    EXPECT_EQ(plan.cells[3].scheme.name(), "WTI");
}

TEST(SweepExpandTest, LabelsCarryOnlyMultiValueAxes)
{
    // Single-value axes stay out of the label; multi-value axes
    // appear with their @-suffix.
    const SweepPlan flat = expandSweep(baseSpec());
    ASSERT_EQ(flat.cells.size(), 2u);
    EXPECT_EQ(flat.cells[0].label, "pops");

    SweepSpec spec = baseSpec();
    spec.blockBytes = {16, 32};
    spec.geometries = {SweepGeometry{}, SweepGeometry{false, 65536, 2}};
    const SweepPlan plan = expandSweep(spec);
    ASSERT_EQ(plan.cells.size(), 8u);
    EXPECT_EQ(plan.cells[0].label, "pops@b16@inf");
    EXPECT_EQ(plan.cells[1].label, "pops@b16@65536B2w");
    EXPECT_EQ(plan.cells[2].label, "pops@b32@inf");
    EXPECT_EQ(plan.cells[3].label, "pops@b32@65536B2w");
}

TEST(SweepExpandTest, CachesAxisMakesOneInstancePerCount)
{
    const SweepSpec spec = parseSweepSpec(
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"scale","caches":[8,16],)"
        R"("refs":20000}]})");
    const SweepPlan plan = expandSweep(spec);
    ASSERT_EQ(plan.traces.size(), 2u);
    EXPECT_EQ(plan.traces[0].label, "scale8");
    EXPECT_EQ(plan.traces[0].caches, 8u);
    EXPECT_EQ(plan.traces[1].label, "scale16");
    EXPECT_EQ(plan.traces[1].caches, 16u);
    // Seeds follow the scaling suite's convention, so a sweep cell
    // and a dirsim_scaling run of the same N share cache entries.
    EXPECT_EQ(plan.traces[0].seed, 88u * 31u + 8u);
    EXPECT_EQ(plan.traces[1].seed, 88u * 31u + 16u);
    ASSERT_EQ(plan.cells.size(), 2u);
    EXPECT_EQ(plan.cells[0].label, "scale8");
    EXPECT_EQ(plan.cells[1].label, "scale16");
}

TEST(SweepExpandTest, RepeatedLabelsAreDisambiguated)
{
    // Same profile twice with different refs: labels must not
    // collide, or the artifacts would be ambiguous.
    const SweepSpec spec = parseSweepSpec(
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops","refs":20000},)"
        R"({"profile":"pops","refs":40000}]})");
    const SweepPlan plan = expandSweep(spec);
    ASSERT_EQ(plan.traces.size(), 2u);
    EXPECT_NE(plan.traces[0].label, plan.traces[1].label);
}

TEST(SweepExpandTest, TargetCellRefsCountsEveryCell)
{
    SweepSpec spec = baseSpec();
    spec.blockBytes = {16, 32};
    const SweepPlan plan = expandSweep(spec);
    // 4 cells x 20000 target refs.
    EXPECT_EQ(plan.targetCellRefs(), 80'000u);
}

TEST(SweepExpandTest, CellConfigCarriesTheAxes)
{
    SweepSpec spec = baseSpec();
    spec.blockBytes = {16};
    spec.geometries = {SweepGeometry{false, 65536, 2}};
    spec.warmupRefs = 500;
    spec.sharing = SharingModel::ByProcessor;
    const SweepPlan plan = expandSweep(spec);
    const SimConfig config = plan.cells[0].config(spec);
    EXPECT_EQ(config.blockBytes, 16u);
    EXPECT_EQ(config.warmupRefs, 500u);
    EXPECT_EQ(config.sharing, SharingModel::ByProcessor);
    ASSERT_TRUE(config.finiteCache.has_value());
    EXPECT_EQ(config.finiteCache->capacityBytes, 65536u);
    EXPECT_EQ(config.finiteCache->ways, 2u);
    EXPECT_EQ(config.finiteCache->blockBytes, 16u);
}

TEST(SweepExpandTest, EmptyAxesCannotExpand)
{
    SweepSpec spec = baseSpec();
    spec.schemes.clear();
    EXPECT_THROW(expandSweep(spec), UsageError);
    spec = baseSpec();
    spec.blockBytes.clear();
    EXPECT_THROW(expandSweep(spec), UsageError);
}

TEST(SweepExpandTest, MaterializeIsDeterministic)
{
    const SweepSpec spec = parseSweepSpec(
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops","refs":20000,"seed":5},)"
        R"({"profile":"pops","caches":[8],"refs":20000}]})");
    const SweepPlan plan = expandSweep(spec);
    const auto first = materializeSweepTraces(plan);
    const auto second = materializeSweepTraces(plan);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_TRUE(first[0] && first[1]);
    // The caches override widens the profile's machine.
    EXPECT_EQ(first[1]->numCpus(), 8u);
    EXPECT_TRUE(first[0]->data() == second[0]->data());
}

} // namespace
} // namespace dirsim
