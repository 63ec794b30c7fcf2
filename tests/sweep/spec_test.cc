/** @file Unit tests for sweep/spec.hh: parsing and linting. */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sweep/spec.hh"

namespace dirsim
{
namespace
{

const char *const kFullSpec = R"({
  "name": "full",
  "schemes": ["Dir0B", "dir1nb", "WTI"],
  "traces": [
    {"profile": "pops", "refs": 40000, "seed": 3},
    {"profile": "scale", "caches": [8, 16], "refs": 30000},
    {"file": "traces/real.trc"}
  ],
  "block_bytes": [16, 32],
  "geometries": ["infinite", {"capacity_bytes": 65536, "ways": 2}],
  "warmup_refs": 1000,
  "sharing": "processor"
})";

TEST(SweepSpecTest, ParsesEveryMember)
{
    const SweepSpec spec = parseSweepSpec(kFullSpec);
    EXPECT_EQ(spec.name, "full");
    // Scheme names are canonicalized to the paper notation.
    ASSERT_EQ(spec.schemes.size(), 3u);
    EXPECT_EQ(spec.schemes[0], "Dir0B");
    EXPECT_EQ(spec.schemes[1], "Dir1NB");
    EXPECT_EQ(spec.schemes[2], "WTI");

    ASSERT_EQ(spec.traces.size(), 3u);
    EXPECT_EQ(spec.traces[0].kind, SweepTraceEntry::Kind::Profile);
    EXPECT_EQ(spec.traces[0].profile, "pops");
    EXPECT_EQ(spec.traces[0].refs, 40000u);
    EXPECT_EQ(spec.traces[0].seed, 3u);
    EXPECT_EQ(spec.traces[1].caches,
              (std::vector<unsigned>{8, 16}));
    EXPECT_EQ(spec.traces[2].kind, SweepTraceEntry::Kind::File);
    EXPECT_EQ(spec.traces[2].file, "traces/real.trc");

    EXPECT_EQ(spec.blockBytes, (std::vector<unsigned>{16, 32}));
    ASSERT_EQ(spec.geometries.size(), 2u);
    EXPECT_TRUE(spec.geometries[0].infinite);
    EXPECT_FALSE(spec.geometries[1].infinite);
    EXPECT_EQ(spec.geometries[1].capacityBytes, 65536u);
    EXPECT_EQ(spec.geometries[1].ways, 2u);
    EXPECT_EQ(spec.warmupRefs, 1000u);
    EXPECT_EQ(spec.sharing, SharingModel::ByProcessor);
}

TEST(SweepSpecTest, MinimalSpecGetsDefaults)
{
    const SweepSpec spec = parseSweepSpec(
        R"({"name":"mini","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}]})");
    EXPECT_EQ(spec.blockBytes,
              (std::vector<unsigned>{defaultBlockBytes}));
    ASSERT_EQ(spec.geometries.size(), 1u);
    EXPECT_TRUE(spec.geometries[0].infinite);
    EXPECT_EQ(spec.warmupRefs, 0u);
    EXPECT_EQ(spec.sharing, SharingModel::ByProcess);
    EXPECT_EQ(spec.traces[0].refs, 60'000u);
}

TEST(SweepSpecTest, RejectsBadSpecsWithNamedMember)
{
    // Each case names the offending member in the error message.
    const std::vector<std::pair<std::string, std::string>> cases{
        {R"({"schemes":["Dir0B"],"traces":[{"profile":"pops"}]})",
         "name"},
        {R"({"name":"x","schemes":[],"traces":[{"profile":"pops"}]})",
         "schemes"},
        {R"({"name":"x","schemes":["NotAScheme"],)"
         R"("traces":[{"profile":"pops"}]})",
         "schemes[0]"},
        {R"({"name":"x","schemes":["Dir0B"],"traces":[]})", "traces"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"nope"}]})",
         "traces[0].profile"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"pops","file":"a.trc"}]})",
         "traces[0]"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"scale"}]})",
         "traces[0]"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"pops"}],"typo_axis":[1]})",
         "typo_axis"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"pops"}],"shards":[1]})",
         "shards"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"pops","caches":[70000]}]})",
         "caches"},
        {R"({"name":"x","schemes":["Dir0B"],)"
         R"("traces":[{"profile":"pops"}],"geometries":["infinite",)"
         R"({"capacity_bytes":100,"ways":3}]})",
         "geometries[1]"},
    };
    for (const auto &[text, member] : cases) {
        try {
            parseSweepSpec(text);
            FAIL() << "accepted: " << text;
        } catch (const UsageError &error) {
            EXPECT_NE(std::string(error.what()).find(member),
                      std::string::npos)
                << error.what() << " should name " << member;
        }
    }
}

TEST(SweepSpecTest, RepeatedAxisValueThrowsNamingTheRepeat)
{
    // "dir0b" canonicalizes to Dir0B: a run would hold two Dir0B
    // columns and one of them would replay the other's cache entry.
    try {
        parseSweepSpec(R"({"name":"x","schemes":["Dir0B","dir0b","WTI"],)"
                       R"("traces":[{"profile":"pops"}]})");
        FAIL() << "accepted a repeated scheme";
    } catch (const UsageError &error) {
        EXPECT_NE(std::string(error.what()).find("schemes[1]"),
                  std::string::npos)
            << error.what();
    }
}

TEST(SweepSpecTest, GeometryLabels)
{
    EXPECT_EQ(SweepGeometry{}.label(), "inf");
    const SweepGeometry finite{false, 65536, 2};
    EXPECT_EQ(finite.label(), "65536B2w");
}

TEST(SweepLintTest, CleanSpecHasNoDiagnostics)
{
    EXPECT_TRUE(lintSweepSpec(kFullSpec).empty());
}

bool
mentions(const std::vector<SweepDiagnostic> &diags,
         const std::string &needle)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const SweepDiagnostic &diag) {
                           return (diag.where + ": " + diag.message)
                                      .find(needle)
                                  != std::string::npos;
                       });
}

TEST(SweepLintTest, CollectsEveryStructuralProblemAtOnce)
{
    // One spec, several independent structural problems: the linter
    // must report them all, not stop at the first the way strict
    // parsing does.
    const std::vector<SweepDiagnostic> diags = lintSweepSpec(R"({
      "name": "broken",
      "schemes": ["Dir0B", "NotAScheme"],
      "traces": [
        {"profile": "pops", "caches": [70000]},
        {"profile": "nope"}
      ]
    })");
    ASSERT_GE(diags.size(), 3u);
    EXPECT_TRUE(mentions(diags, "NotAScheme"));
    EXPECT_TRUE(mentions(diags, "70000"));
    EXPECT_TRUE(mentions(diags, "nope"));
}

TEST(SweepLintTest, ReportsDuplicatesAndImpossibleGeometries)
{
    // Structurally clean, semantically wrong: duplicate axis values
    // (which expand into duplicate cells) and a finite geometry that
    // cannot hold the requested block size.
    const std::vector<SweepDiagnostic> diags = lintSweepSpec(R"({
      "name": "dups",
      "schemes": ["Dir0B", "dir0b"],
      "traces": [
        {"profile": "pops"},
        {"profile": "pops"}
      ],
      "block_bytes": [32, 32, 131072],
      "geometries": [{"capacity_bytes": 65536, "ways": 2}]
    })");
    ASSERT_GE(diags.size(), 4u);
    EXPECT_TRUE(mentions(diags, "schemes[1]"));     // dup scheme
    EXPECT_TRUE(mentions(diags, "traces[1]"));      // dup trace
    EXPECT_TRUE(mentions(diags, "block_bytes[1]")); // dup block
    EXPECT_TRUE(mentions(diags, "geometries[0]"));  // impossible
}

TEST(SweepLintTest, RejectsCapacitiesAboveTheLimit)
{
    // 2^40 bytes direct-mapped would reserve terabytes per cache; the
    // limit (2^32 bytes) turns it into a diagnostic before any cell.
    const std::string spec =
        R"({"name":"huge","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],)"
        R"("geometries":[{"capacity_bytes":1099511627776,"ways":1}]})";
    const std::vector<SweepDiagnostic> diags = lintSweepSpec(spec);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].where, "geometries[0]");
    EXPECT_TRUE(mentions(diags, "4294967296")) << diags[0].message;
    EXPECT_THROW(parseSweepSpec(spec), UsageError);

    EXPECT_TRUE(lintSweepSpec(
                    R"({"name":"max","schemes":["Dir0B"],)"
                    R"("traces":[{"profile":"pops"}],)"
                    R"("geometries":[{"capacity_bytes":4294967296,)"
                    R"("ways":1}]})")
                    .empty());
}

TEST(SweepLintTest, ParseAcceptsExactlyWhatTheLinterAccepts)
{
    // Every spec these tests feed either side: parseSweepSpec() must
    // accept it iff the linter finds nothing, and otherwise throw on
    // the linter's first diagnostic.
    const std::vector<std::string> specs{
        kFullSpec,
        R"({"name":"x","schemes":["Dir0B","dir0b"],)"
        R"("traces":[{"profile":"pops"}]})",
        R"({"name":"x","schemes":["Dir0B"],"traces":[{"profile":"pops"},)"
        R"({"profile":"pops","seed":88}]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"scale","caches":[8,8]}]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],"block_bytes":[16,16]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],)"
        R"("geometries":["infinite","infinite"]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],"block_bytes":[16,131072],)"
        R"("geometries":[{"capacity_bytes":65536,"ways":2}]})",
        R"({"name":"x","schemes":["Dir0B"],"traces":[{"profile":"pops"}],)"
        R"("geometries":[{"capacity_bytes":8589934592,"ways":4}]})",
        R"({"name":"x","schemes":["Nope","WTI","WTI"],)"
        R"("traces":[{"profile":"pops"}]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"pops"}],"block_bytes":[16,24]})",
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"scale","caches":[65536]}]})",
        "{\"name\": ",
    };
    for (const std::string &text : specs) {
        const std::vector<SweepDiagnostic> diags = lintSweepSpec(text);
        try {
            parseSweepSpec(text);
            EXPECT_TRUE(diags.empty()) << "parse accepted: " << text;
        } catch (const UsageError &error) {
            ASSERT_FALSE(diags.empty()) << "lint accepted: " << text;
            EXPECT_NE(std::string(error.what()).find(diags[0].message),
                      std::string::npos)
                << error.what() << " vs " << diags[0].message;
        }
    }
}

TEST(SweepLintTest, BlockSizesGetTheEnginesCheck)
{
    // Each entry must pass checkBlockSize() (a power of two of at
    // least one bus word) and is named with its message, before any
    // cell runs.
    for (const unsigned bytes : {0u, 2u, 3u, 24u}) {
        std::string engine;
        try {
            checkBlockSize(bytes);
        } catch (const UsageError &error) {
            engine = error.what();
        }
        ASSERT_FALSE(engine.empty()) << bytes;
        const std::string spec =
            R"({"name":"x","schemes":["Dir0B"],)"
            R"("traces":[{"profile":"pops"}],"block_bytes":[16,)"
            + std::to_string(bytes) + "]}";
        const std::vector<SweepDiagnostic> diags = lintSweepSpec(spec);
        ASSERT_EQ(diags.size(), 1u) << spec;
        EXPECT_EQ(diags[0].where, "block_bytes[1]");
        EXPECT_EQ(diags[0].message, engine);
        EXPECT_THROW(parseSweepSpec(spec), UsageError);
    }
    // A lone rejected size is one problem, not also an empty axis.
    EXPECT_EQ(lintSweepSpec(R"({"name":"x","schemes":["Dir0B"],)"
                            R"("traces":[{"profile":"pops"}],)"
                            R"("block_bytes":[3]})")
                  .size(),
              1u);
    EXPECT_TRUE(lintSweepSpec(R"({"name":"x","schemes":["Dir0B"],)"
                              R"("traces":[{"profile":"pops"}],)"
                              R"("block_bytes":[4,8,64]})")
                    .empty());
}

TEST(SweepLintTest, RejectedScaleMachineIsOneProblem)
{
    // The entry names a machine size; that the size is rejected is
    // the problem, not a missing "caches" axis.
    const std::vector<SweepDiagnostic> diags = lintSweepSpec(
        R"({"name":"x","schemes":["Dir0B"],)"
        R"("traces":[{"profile":"scale","caches":[65536]}]})");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].where, "traces[0].caches[0]");
}

TEST(SweepLintTest, MalformedJsonIsADiagnosticNotAThrow)
{
    const std::vector<SweepDiagnostic> diags =
        lintSweepSpec("{\"name\": ");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].where, "(json)");
}

} // namespace
} // namespace dirsim
