#include "protocols/registry.hh"

#include <algorithm>
#include <cctype>

#include "common/env.hh"
#include "common/logging.hh"
#include "directory/storage.hh"
#include "protocols/berkeley.hh"
#include "protocols/dir0_b.hh"
#include "protocols/dir1_nb.hh"
#include "protocols/dir_cv.hh"
#include "protocols/dir_i_b.hh"
#include "protocols/dir_i_nb.hh"
#include "protocols/dir_n_nb.hh"
#include "protocols/dragon.hh"
#include "protocols/wti.hh"
#include "protocols/yen_fu.hh"

namespace dirsim
{

namespace
{

std::string
lower(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return out;
}

/**
 * Parse "dir<i>b" / "dir<i>nb" into (i, broadcast); returns false
 * when @p name is not of that shape.
 */
bool
parseDirFamily(const std::string &name, unsigned &pointers,
               bool &broadcast)
{
    if (name.rfind("dir", 0) != 0)
        return false;
    std::size_t pos = 3;
    std::size_t digits = 0;
    unsigned value = 0;
    while (pos < name.size() && std::isdigit(
               static_cast<unsigned char>(name[pos]))) {
        value = value * 10 + static_cast<unsigned>(name[pos] - '0');
        ++pos;
        ++digits;
    }
    if (digits == 0)
        return false;
    const std::string suffix = name.substr(pos);
    if (suffix == "b")
        broadcast = true;
    else if (suffix == "nb")
        broadcast = false;
    else
        return false;
    pointers = value;
    return true;
}

SchemeSpec
named(SchemeFamily family, unsigned pointers = 0)
{
    SchemeSpec spec;
    spec.family = family;
    spec.pointers = pointers;
    return spec;
}

} // namespace

bool
SchemeSpec::broadcast() const
{
    switch (family) {
      case SchemeFamily::Dir0B:
      case SchemeFamily::DirIB:
      case SchemeFamily::DirCV:
      case SchemeFamily::WTI:
      case SchemeFamily::Dragon:
      case SchemeFamily::Berkeley:
        return true;
      case SchemeFamily::Dir1NB:
      case SchemeFamily::DirNNB:
      case SchemeFamily::YenFu:
      case SchemeFamily::DirINB:
        return false;
    }
    panic("SchemeSpec with invalid family");
}

bool
SchemeSpec::snoopy() const
{
    return family == SchemeFamily::WTI
        || family == SchemeFamily::Dragon
        || family == SchemeFamily::Berkeley;
}

std::string
SchemeSpec::name() const
{
    switch (family) {
      case SchemeFamily::Dir1NB:
        return "Dir1NB";
      case SchemeFamily::DirNNB:
        return "DirNNB";
      case SchemeFamily::Dir0B:
        return "Dir0B";
      case SchemeFamily::WTI:
        return "WTI";
      case SchemeFamily::Dragon:
        return "Dragon";
      case SchemeFamily::Berkeley:
        return "Berkeley";
      case SchemeFamily::YenFu:
        return "YenFu";
      case SchemeFamily::DirCV:
        return pointers == 0 ? "DirCV"
                             : "DirCVr" + std::to_string(pointers);
      case SchemeFamily::DirIB:
        return "Dir" + std::to_string(pointers) + "B";
      case SchemeFamily::DirINB:
        return "Dir" + std::to_string(pointers) + "NB";
    }
    panic("SchemeSpec with invalid family");
}

std::optional<double>
directoryBitsPerBlock(const SchemeSpec &spec, unsigned num_caches)
{
    StorageParams params;
    params.numCaches = num_caches;
    params.numPointers = spec.pointers;
    switch (spec.family) {
      case SchemeFamily::Dir0B:
        return directoryBitsPerBlock(DirectoryOrg::TwoBit, params);
      case SchemeFamily::Dir1NB:
      case SchemeFamily::DirINB:
        return directoryBitsPerBlock(DirectoryOrg::LimitedPtr, params);
      case SchemeFamily::DirIB:
        return directoryBitsPerBlock(DirectoryOrg::LimitedPtrB, params);
      case SchemeFamily::DirNNB:
        return directoryBitsPerBlock(DirectoryOrg::FullMap, params);
      case SchemeFamily::DirCV:
        if (spec.pointers == 0)
            return directoryBitsPerBlock(DirectoryOrg::CoarseVector,
                                         params);
        params.regionSize = spec.pointers;
        return directoryBitsPerBlock(DirectoryOrg::RegionVector, params);
      case SchemeFamily::WTI:
      case SchemeFamily::Dragon:
      case SchemeFamily::Berkeley:
      case SchemeFamily::YenFu:
        return std::nullopt;
    }
    panic("SchemeSpec with invalid family");
}

SchemeSpec
parseScheme(const std::string &name)
{
    const std::string key = lower(name);
    if (key == "dir1nb")
        return named(SchemeFamily::Dir1NB, 1);
    if (key == "dirnnb")
        return named(SchemeFamily::DirNNB);
    if (key == "dir0b")
        return named(SchemeFamily::Dir0B, 0);
    if (key == "wti")
        return named(SchemeFamily::WTI);
    if (key == "dragon")
        return named(SchemeFamily::Dragon);
    if (key == "berkeley")
        return named(SchemeFamily::Berkeley);
    if (key == "yenfu")
        return named(SchemeFamily::YenFu);
    if (key == "dircv")
        return named(SchemeFamily::DirCV);
    if (key.rfind("dircvr", 0) == 0) {
        const std::uint64_t region = parseDecimal(
            key.substr(6), "DirCVr<K> region granularity of '" + name + "'",
            maxCacheDomain);
        fatalIf(region == 0,
                "DirCVr0 is not a scheme; use 'DirCV' for the ternary "
                "code");
        return named(SchemeFamily::DirCV,
                     static_cast<unsigned>(region));
    }

    unsigned pointers = 0;
    bool broadcast = false;
    if (parseDirFamily(key, pointers, broadcast)) {
        fatalIf(pointers == 0 && !broadcast,
                "Dir0NB cannot grant exclusive access (see the paper)");
        fatalIf(pointers == 0, "Dir0B is a named scheme; use 'Dir0B'");
        return named(broadcast ? SchemeFamily::DirIB
                               : SchemeFamily::DirINB,
                     pointers);
    }
    fatal("unknown coherence scheme '", name, "'; valid schemes: ",
          validSchemesText());
}

std::vector<SchemeSpec>
parseSchemes(const std::vector<std::string> &names)
{
    std::vector<SchemeSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names)
        specs.push_back(parseScheme(name));
    return specs;
}

std::unique_ptr<CoherenceProtocol>
makeProtocol(const SchemeSpec &spec, unsigned num_caches,
             const BlockSpace &blocks, const CacheFactory &factory)
{
    switch (spec.family) {
      case SchemeFamily::Dir1NB:
        return std::make_unique<Dir1NB>(num_caches, blocks, factory);
      case SchemeFamily::DirNNB:
        return std::make_unique<DirNNB>(num_caches, blocks, factory);
      case SchemeFamily::Dir0B:
        return std::make_unique<Dir0B>(num_caches, blocks, factory);
      case SchemeFamily::WTI:
        return std::make_unique<WTI>(num_caches, blocks, factory);
      case SchemeFamily::Dragon:
        return std::make_unique<Dragon>(num_caches, blocks, factory);
      case SchemeFamily::Berkeley:
        return std::make_unique<Berkeley>(num_caches, blocks, factory);
      case SchemeFamily::YenFu:
        return std::make_unique<YenFu>(num_caches, blocks, factory);
      case SchemeFamily::DirCV:
        return std::make_unique<DirCV>(num_caches, blocks, spec.pointers,
                                       factory);
      case SchemeFamily::DirIB:
        fatalIf(spec.pointers == 0,
                "Dir<i>B needs at least one pointer");
        return std::make_unique<DirIB>(num_caches, blocks, spec.pointers,
                                       factory);
      case SchemeFamily::DirINB:
        fatalIf(spec.pointers == 0,
                "Dir0NB cannot grant exclusive access (see the paper)");
        return std::make_unique<DirINB>(num_caches, blocks,
                                        spec.pointers, factory);
    }
    panic("SchemeSpec with invalid family");
}

const std::vector<std::string> &
paperSchemes()
{
    static const std::vector<std::string> names = {
        "Dir1NB", "WTI", "Dir0B", "Dragon",
    };
    return names;
}

const std::vector<std::string> &
allSchemes()
{
    static const std::vector<std::string> names = {
        "Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB", "Berkeley",
        "YenFu", "DirCV",
    };
    return names;
}

const std::string &
validSchemesText()
{
    static const std::string text = [] {
        std::string out;
        for (const auto &name : allSchemes()) {
            if (!out.empty())
                out += ", ";
            out += name;
        }
        out += ", and the parameterized families Dir<i>B / Dir<i>NB "
               "(any integer i >= 1, e.g. Dir2B, Dir4NB) and "
               "DirCVr<K> (region-vector coarse code, any region "
               "granularity K >= 1, e.g. DirCVr16)";
        return out;
    }();
    return text;
}

} // namespace dirsim
