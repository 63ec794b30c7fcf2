/**
 * @file
 * Plain-text table formatter used by the report views (sim/report.hh)
 * and the benches to print paper tables and figure data series.
 */

#ifndef DIRSIM_COMMON_TABLE_HH
#define DIRSIM_COMMON_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dirsim
{

/**
 * A right-padded text table.
 *
 * Usage:
 * @code
 *   TextTable t({"Scheme", "cycles/ref"});
 *   t.addRow({"Dir0B", TextTable::fixed(0.0491, 4)});
 *   t.print(std::cout);
 * @endcode
 *
 * The first column is left-aligned; the rest are right-aligned, which
 * matches the numeric tables in the paper.
 */
class TextTable
{
  public:
    /** @param header_arg column titles; fixes the column count */
    explicit TextTable(std::vector<std::string> header_arg);

    /**
     * Append one data row.
     *
     * @param cells exactly as many cells as there are columns
     */
    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal rule before the next row. */
    void addRule();

    /** Render to a stream with two-space column gutters. */
    void print(std::ostream &os) const;

    /** Render to a string (convenience for tests). */
    std::string toString() const;

    /** Format a double with @p digits fixed decimal places. */
    static std::string fixed(double value, int digits);

    /** Format a percentage with @p digits decimal places, no sign. */
    static std::string pct(double value, int digits = 2);

    /** Format an integer with thousands separators ("3,142"). */
    static std::string grouped(std::uint64_t value);

    /** Number of data rows added so far. */
    std::size_t rows() const { return body.size(); }

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> body; // empty row == rule
};

/**
 * Render a horizontal ASCII bar of @p value scaled so that @p maximum
 * maps to @p width characters. Used to sketch the paper's figures in
 * terminal output.
 */
std::string asciiBar(double value, double maximum, int width = 50);

} // namespace dirsim

#endif // DIRSIM_COMMON_TABLE_HH
