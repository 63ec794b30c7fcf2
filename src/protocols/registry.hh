/**
 * @file
 * Protocol factory: build any scheme from its paper-notation name or
 * from a structured SchemeSpec, used by the example CLIs and the
 * experiment layer.
 *
 * A scheme name is parsed once, by parseScheme(), into a SchemeSpec;
 * makeProtocol(spec, ...) and every simulation entry point take the
 * spec. Specs carry the family, pointer budget, and broadcast flag
 * explicitly, so callers never re-parse "Dir<i>B" strings.
 */

#ifndef DIRSIM_PROTOCOLS_REGISTRY_HH
#define DIRSIM_PROTOCOLS_REGISTRY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "protocols/protocol.hh"

namespace dirsim
{

/** Every protocol family dirsim implements. */
enum class SchemeFamily
{
    Dir1NB,   ///< one pointer, no broadcast (dedicated implementation)
    DirNNB,   ///< Censier & Feautrier full map
    Dir0B,    ///< Archibald & Baer two-bit states, broadcast
    WTI,      ///< snoopy write-through-with-invalidate
    Dragon,   ///< snoopy Xerox update protocol
    Berkeley, ///< snoopy ownership protocol
    YenFu,    ///< Yen & Fu single-bit full-map refinement
    DirCV,    ///< Section 6 coarse-vector code
    DirIB,    ///< parameterized Dir<i>B, i >= 1
    DirINB,   ///< parameterized Dir<i>NB, i >= 1
};

/**
 * A scheme identity in structured form.
 *
 * parseScheme() and name() round-trip: for every valid scheme name
 * `s`, parseScheme(s).name() is the canonical paper notation of `s`,
 * and parseScheme(spec.name()) == spec for every valid spec.
 */
struct SchemeSpec
{
    SchemeFamily family = SchemeFamily::Dir0B;

    /**
     * Directory pointers per entry: the `i` of the Dir<i>B / Dir<i>NB
     * families, 1 for Dir1NB, 0 for Dir0B. For DirCV it is overloaded
     * as the region granularity K of the DirCVr<K> region-vector code
     * (0 selects the ternary Section 6 code). Zero (and meaningless)
     * for the full-map and snoopy families.
     */
    unsigned pointers = 0;

    /** True for the parameterized Dir<i>B / Dir<i>NB families. */
    bool parameterized() const
    {
        return family == SchemeFamily::DirIB
            || family == SchemeFamily::DirINB;
    }

    /**
     * True when the scheme can resort to broadcast: the paper's `B`
     * directory suffix (Dir0B, Dir<i>B), the coarse-vector limited
     * broadcast, and the snoopy schemes (every bus transaction is
     * observed by all caches).
     */
    bool broadcast() const;

    /** True for the snoopy (non-directory) schemes. */
    bool snoopy() const;

    /** Canonical paper-notation name, e.g. "Dir0B" or "Dir4NB". */
    std::string name() const;

    bool operator==(const SchemeSpec &) const = default;
};

/**
 * Directory bits per memory block that @p spec's directory stores on
 * a machine of @p num_caches caches (directory/storage.hh). The one
 * map from scheme to organization: Dir0B two-bit; Dir1NB and
 * Dir<i>NB limited pointers; Dir<i>B limited pointers plus the
 * broadcast bit; DirNNB full map; DirCV coarse vector; DirCVr<K> the
 * region vector with K. nullopt for the schemes with no storage
 * formula: the snoopy ones and YenFu.
 */
std::optional<double> directoryBitsPerBlock(const SchemeSpec &spec,
                                            unsigned num_caches);

/**
 * Parse a scheme name into its structured spec.
 *
 * Recognized names: "Dir1NB", "DirNNB", "Dir0B", "WTI", "Dragon",
 * "Berkeley", "YenFu", "DirCV", and the parameterized families
 * "Dir<i>B" / "Dir<i>NB" for any integer i >= 1 (e.g. "Dir2B",
 * "Dir4NB") and "DirCVr<K>" for any region granularity K >= 1
 * (e.g. "DirCVr16"). Matching is case-insensitive.
 *
 * @throws UsageError for unknown names; the message names the
 *         offending input and lists every valid scheme
 */
SchemeSpec parseScheme(const std::string &name);

/** parseScheme() over a list, e.g. paperSchemes(). */
std::vector<SchemeSpec> parseSchemes(
    const std::vector<std::string> &names);

/**
 * Instantiate a protocol from its structured spec.
 *
 * @param spec scheme identity (see parseScheme())
 * @param num_caches caches in the coherence domain
 * @param blocks the blocks references may name (a decoded trace's
 *        DecodedTrace::blockSpace(), sim/decoded.hh)
 * @param factory cache factory; empty builds the paper's infinite
 *        caches, a FiniteCache factory enables replacement simulation
 */
std::unique_ptr<CoherenceProtocol> makeProtocol(
    const SchemeSpec &spec, unsigned num_caches, const BlockSpace &blocks,
    const CacheFactory &factory = {});

/** Names of the four schemes the paper's main evaluation compares. */
const std::vector<std::string> &paperSchemes();

/**
 * Names of every named (non-parameterized) scheme we implement. The
 * parameterized families "Dir<i>B" / "Dir<i>NB" (any i >= 1) are
 * additionally valid but not enumerable; CLI help should list them
 * alongside these names (see validSchemesText()).
 */
const std::vector<std::string> &allSchemes();

/**
 * One-line human-readable list of every valid scheme name, including
 * the parameterized families — for CLI usage strings and errors.
 */
const std::string &validSchemesText();

} // namespace dirsim

#endif // DIRSIM_PROTOCOLS_REGISTRY_HH
