/** @file Unit tests for protocols/registry.hh. */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "protocols/registry.hh"

namespace dirsim
{
namespace
{

/** Enough blocks for protocols that are only built and named. */
constexpr BlockSpace blocks{16};

TEST(RegistryTest, NamedSchemesResolve)
{
    for (const auto &name : allSchemes()) {
        const auto protocol = makeProtocol(parseScheme(name), 4, blocks);
        ASSERT_NE(protocol, nullptr) << name;
        EXPECT_EQ(protocol->name(), name);
        EXPECT_EQ(protocol->numCaches(), 4u);
    }
}

TEST(RegistryTest, CaseInsensitive)
{
    EXPECT_EQ(makeProtocol(parseScheme("dir0b"), 2, blocks)->name(), "Dir0B");
    EXPECT_EQ(makeProtocol(parseScheme("DRAGON"), 2, blocks)->name(),
              "Dragon");
    EXPECT_EQ(makeProtocol(parseScheme("wti"), 2, blocks)->name(), "WTI");
    EXPECT_EQ(makeProtocol(parseScheme("dirnnb"), 2, blocks)->name(),
              "DirNNB");
    EXPECT_EQ(makeProtocol(parseScheme("yenfu"), 2, blocks)->name(), "YenFu");
    EXPECT_EQ(makeProtocol(parseScheme("DirCV"), 2, blocks)->name(), "DirCV");
}

TEST(RegistryTest, ParameterizedFamilies)
{
    EXPECT_EQ(makeProtocol(parseScheme("Dir2B"), 8, blocks)->name(), "Dir2B");
    EXPECT_EQ(makeProtocol(parseScheme("Dir4NB"), 8, blocks)->name(),
              "Dir4NB");
    EXPECT_EQ(makeProtocol(parseScheme("dir16b"), 32, blocks)->name(),
              "Dir16B");
}

TEST(RegistryTest, Dir1NBUsesDedicatedImplementation)
{
    // The explicit single-pointer scheme, not DirINB(1): its name is
    // the classic one and its behaviour is the paper's Dir1NB.
    const auto protocol = makeProtocol(parseScheme("Dir1NB"), 4, blocks);
    EXPECT_EQ(protocol->name(), "Dir1NB");
}

TEST(RegistryTest, RejectsUnknownNames)
{
    EXPECT_THROW(makeProtocol(parseScheme("MOESI"), 4, blocks), UsageError);
    EXPECT_THROW(makeProtocol(parseScheme(""), 4, blocks), UsageError);
    EXPECT_THROW(makeProtocol(parseScheme("DirXB"), 4, blocks), UsageError);
    EXPECT_THROW(makeProtocol(parseScheme("Dir2"), 4, blocks), UsageError);
}

TEST(RegistryTest, PointerCountPastTheBudgetLimitIsRejected)
{
    // i goes through parseDecimal() bounded by the largest budget a
    // LimitedDirectory counts (2^30 - 1), so no name wraps to a
    // smaller scheme: 2^32 + 1 used to parse as Dir1NB.
    for (const std::string name :
         {"Dir4294967297NB", "Dir18446744073709551616B",
          "Dir1073741824NB"}) {
        try {
            parseScheme(name);
            ADD_FAILURE() << name << " parsed";
        } catch (const UsageError &error) {
            EXPECT_NE(std::string(error.what()).find(name),
                      std::string::npos)
                << error.what();
        }
    }
    const SchemeSpec widest = parseScheme("Dir1073741823B");
    EXPECT_EQ(widest.family, SchemeFamily::DirIB);
    EXPECT_EQ(widest.pointers, (1u << 30) - 1);
}

TEST(RegistryTest, UnknownNameErrorNamesOffenderAndValidSchemes)
{
    try {
        makeProtocol(parseScheme("MOESI"), 4, blocks);
        FAIL() << "expected UsageError";
    } catch (const UsageError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("MOESI"), std::string::npos) << what;
        // Every named scheme and the parameterized families appear.
        for (const auto &name : allSchemes())
            EXPECT_NE(what.find(name), std::string::npos) << name;
        EXPECT_NE(what.find("Dir<i>B"), std::string::npos) << what;
        EXPECT_NE(what.find("Dir<i>NB"), std::string::npos) << what;
    }
}

TEST(RegistryTest, DirectoryStorageFollowsTheScheme)
{
    // Bits per memory block at n = 64 (6-bit pointers).
    const std::vector<std::pair<std::string, double>> bits{
        {"Dir0B", 2.0},   // two-bit
        {"Dir1NB", 8.0},  // 1 pointer + 1-bit count + dirty
        {"Dir2NB", 15.0}, // 2 pointers + 2-bit count + dirty
        {"Dir2B", 16.0},  // Dir2NB + broadcast bit
        {"DirNNB", 65.0}, // full map + dirty
        {"DirCV", 13.0},  // 2 log2 n + dirty
        {"DirCVr16", 5.0}, // 4 regions + dirty
    };
    for (const auto &[name, expected] : bits) {
        const std::optional<double> value =
            directoryBitsPerBlock(parseScheme(name), 64);
        ASSERT_TRUE(value.has_value()) << name;
        EXPECT_DOUBLE_EQ(*value, expected) << name;
    }
    for (const char *name : {"WTI", "Dragon", "Berkeley", "YenFu"})
        EXPECT_FALSE(directoryBitsPerBlock(parseScheme(name), 64))
            << name;
}

TEST(RegistryTest, SpecRoundTripsForNamedSchemes)
{
    for (const auto &name : allSchemes()) {
        const SchemeSpec spec = parseScheme(name);
        EXPECT_EQ(spec.name(), name);
        EXPECT_EQ(parseScheme(spec.name()), spec);
        EXPECT_FALSE(spec.parameterized()) << name;
    }
}

TEST(RegistryTest, SpecRoundTripsForParameterizedFamilies)
{
    for (const unsigned i : {1u, 2u, 7u, 16u, 123u}) {
        for (const bool broadcast : {true, false}) {
            if (!broadcast && i == 1)
                continue; // "Dir1NB" aliases the named scheme below
            SchemeSpec spec;
            spec.family = broadcast ? SchemeFamily::DirIB
                                    : SchemeFamily::DirINB;
            spec.pointers = i;
            EXPECT_EQ(parseScheme(spec.name()), spec) << spec.name();
            EXPECT_TRUE(spec.parameterized());
            EXPECT_EQ(spec.broadcast(), broadcast);
        }
    }
    EXPECT_EQ(parseScheme("dir4nb").name(), "Dir4NB");
    EXPECT_EQ(parseScheme("Dir2B").pointers, 2u);

    // A hand-built DirINB(1) prints as "Dir1NB", which canonicalizes
    // to the dedicated named implementation of the same protocol.
    SchemeSpec one_ptr;
    one_ptr.family = SchemeFamily::DirINB;
    one_ptr.pointers = 1;
    EXPECT_EQ(one_ptr.name(), "Dir1NB");
    EXPECT_EQ(parseScheme(one_ptr.name()).family,
              SchemeFamily::Dir1NB);
}

TEST(RegistryTest, SpecStructure)
{
    EXPECT_EQ(parseScheme("Dir1NB").family, SchemeFamily::Dir1NB);
    EXPECT_EQ(parseScheme("Dir1NB").pointers, 1u);
    EXPECT_FALSE(parseScheme("Dir1NB").broadcast());

    EXPECT_EQ(parseScheme("Dir0B").family, SchemeFamily::Dir0B);
    EXPECT_EQ(parseScheme("Dir0B").pointers, 0u);
    EXPECT_TRUE(parseScheme("Dir0B").broadcast());

    // "Dir1B" is the parameterized family, not a named scheme.
    EXPECT_EQ(parseScheme("Dir1B").family, SchemeFamily::DirIB);

    EXPECT_FALSE(parseScheme("DirNNB").broadcast());
    EXPECT_FALSE(parseScheme("YenFu").broadcast());
    EXPECT_TRUE(parseScheme("DirCV").broadcast());

    for (const char *name : {"WTI", "Dragon", "Berkeley"}) {
        EXPECT_TRUE(parseScheme(name).snoopy()) << name;
        EXPECT_TRUE(parseScheme(name).broadcast()) << name;
    }
    EXPECT_FALSE(parseScheme("DirNNB").snoopy());
}

TEST(RegistryTest, SpecFactoryBuildsTheSpecifiedProtocol)
{
    for (const char *name : {"Dir0B", "Dragon", "Dir3NB", "Dir2B"}) {
        const auto protocol = makeProtocol(parseScheme(name), 8, blocks);
        EXPECT_EQ(protocol->name(), name);
        EXPECT_EQ(protocol->numCaches(), 8u);
    }
}

TEST(RegistryTest, SpecFactoryRejectsZeroPointerFamilies)
{
    SchemeSpec spec;
    spec.family = SchemeFamily::DirINB;
    spec.pointers = 0;
    EXPECT_THROW(makeProtocol(spec, 4, blocks), UsageError);
    spec.family = SchemeFamily::DirIB;
    EXPECT_THROW(makeProtocol(spec, 4, blocks), UsageError);
}

TEST(RegistryTest, DirCVrRoundTripsAndBuilds)
{
    const SchemeSpec spec = parseScheme("DirCVr12");
    EXPECT_EQ(spec.family, SchemeFamily::DirCV);
    EXPECT_EQ(spec.pointers, 12u);
    EXPECT_EQ(spec.name(), "DirCVr12");
    EXPECT_EQ(parseScheme(spec.name()), spec);
    EXPECT_FALSE(spec.parameterized());
    EXPECT_TRUE(spec.broadcast());

    EXPECT_EQ(makeProtocol(parseScheme("dircvr4"), 6, blocks)->name(),
              "DirCVr4");
    EXPECT_EQ(makeProtocol(spec, 1022, blocks)->name(), "DirCVr12");

    // The two coarse-vector modes are distinct specs (distinct cell
    // identities), and the ternary name never grows a suffix.
    EXPECT_NE(parseScheme("DirCV"), spec);
    EXPECT_EQ(parseScheme("DirCV").name(), "DirCV");

    EXPECT_THROW(parseScheme("DirCVr0"), UsageError);
    EXPECT_THROW(parseScheme("DirCVr"), UsageError);
    EXPECT_THROW(parseScheme("DirCVrx"), UsageError);
    EXPECT_THROW(parseScheme("DirCVr70000"), UsageError);
    EXPECT_THROW(parseScheme("DirCVr99999999999999999999"), UsageError);
}

TEST(RegistryTest, ValidSchemesTextMentionsEverything)
{
    const std::string &text = validSchemesText();
    for (const auto &name : allSchemes())
        EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(text.find("Dir<i>B"), std::string::npos);
    EXPECT_NE(text.find("Dir<i>NB"), std::string::npos);
    EXPECT_NE(text.find("DirCVr<K>"), std::string::npos);
}

TEST(RegistryTest, RejectsDir0NB)
{
    // "The one case that does not make sense is Dir0 NB, since there
    // is no way to obtain exclusive access."
    EXPECT_THROW(makeProtocol(parseScheme("Dir0NB"), 4, blocks), UsageError);
}

TEST(RegistryTest, PaperSchemesAreTheEvaluationSet)
{
    const auto &schemes = paperSchemes();
    ASSERT_EQ(schemes.size(), 4u);
    EXPECT_EQ(schemes[0], "Dir1NB");
    EXPECT_EQ(schemes[1], "WTI");
    EXPECT_EQ(schemes[2], "Dir0B");
    EXPECT_EQ(schemes[3], "Dragon");
}

TEST(RegistryTest, ZeroCachesRejected)
{
    EXPECT_THROW(makeProtocol(parseScheme("Dir0B"), 0, blocks), UsageError);
}

} // namespace
} // namespace dirsim
