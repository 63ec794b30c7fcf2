#include "sim/report.hh"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "protocols/registry.hh"

namespace dirsim
{

const PublishedNumbers &
published()
{
    constexpr double x = unpublished;
    // Table 4 rows in EventType order: instr, read, rd-hit, rd-miss,
    // rm-blk-cln, rm-blk-drty, rm-first-ref, write, wrt-hit,
    // wh-blk-cln, wh-blk-drty, wh-distrib, wh-local, wrt-miss,
    // wm-blk-cln, wm-blk-drty, wm-first-ref.
    static const PublishedNumbers numbers{
        .schemes = {
            {.scheme = "Dir1NB",
             .eventPercent = {49.72, 39.82, 34.32, 5.18, 4.78, 0.40, 0.32,
                              10.46, 10.19, x, x, x, x, 0.17, 0.08, 0.09,
                              0.08},
             .cyclesPerRef = 0.3210,
             .cyclesWithoutLocks = 0.12},
            {.scheme = "WTI",
             .eventPercent = {49.72, 39.82, 38.88, 0.62, x, x, 0.32, 10.46,
                              10.25, x, x, x, x, 0.12, x, x, 0.08},
             .cyclesPerRef = 0.1466},
            {.scheme = "Dir0B",
             .eventPercent = {49.72, 39.82, 38.88, 0.62, 0.23, 0.40, 0.32,
                              10.46, 10.25, 0.41, 9.84, x, x, 0.11, 0.02,
                              0.09, 0.08},
             .cyclesPerRef = 0.0491,
             .dirAccess = 0.0041,
             .transactionsPerRef = 0.0114},
            {.scheme = "Dragon",
             .eventPercent = {49.72, 39.82, 39.20, 0.30, 0.14, 0.17, 0.32,
                              10.46, 10.36, x, x, 1.74, 8.62, 0.02, 0.01,
                              0.01, 0.08},
             .cyclesPerRef = 0.0336,
             .transactionsPerRef = 0.0206},
            {.scheme = "DirNNB", .cyclesPerRef = 0.0499},
            {.scheme = "Dir1B",
             .cyclesWithoutBroadcasts = 0.0485,
             .cyclesPerBroadcastCycle = 0.0006},
        },
        .pipelined = {.memoryAccess = 5, .cacheAccess = 5,
                      .writeBack = 4, .writeThrough = 1, .dirCheck = 1,
                      .invalidate = 1},
        .nonPipelined = {.kind = BusKind::NonPipelined,
                         .memoryAccess = 7, .cacheAccess = 6,
                         .writeBack = 4, .writeThrough = 2,
                         .dirCheck = 3, .invalidate = 1},
        .cleanWritesAtMostOneInval = 0.85,
        .coherenceMissShare = 0.36,
        .estimateMips = 10,
        .estimateBusCycleNs = 100,
        .estimateProcessors = 15,
    };
    return numbers;
}

const PublishedScheme *
publishedScheme(const std::string &scheme)
{
    for (const PublishedScheme &entry : published().schemes) {
        if (entry.scheme == scheme)
            return &entry;
    }
    return nullptr;
}

std::string
cyc(double value)
{
    return TextTable::fixed(value, 4);
}

std::string
pct(double fraction)
{
    return TextTable::fixed(100.0 * fraction, 2);
}

namespace
{

/** Paper Table 4 layout: which rows print for which schemes. */
bool
cellApplies(EventType event, const std::string &scheme)
{
    using E = EventType;
    switch (event) {
      case E::RmBlkCln:
      case E::RmBlkDrty:
      case E::WmBlkCln:
      case E::WmBlkDrty:
        return scheme != "WTI";
      case E::WhBlkCln:
      case E::WhBlkDrty:
        return scheme != "Dragon" && scheme != "WTI";
      case E::WhDistrib:
      case E::WhLocal:
        return scheme == "Dragon";
      default:
        return true;
    }
}

/** A published number, or "-" when the paper gives none. */
std::string
paperCell(double value, int digits)
{
    return std::isnan(value) ? "-" : TextTable::fixed(value, digits);
}

/** @p scheme's published cycles per reference, if any. */
double
paperCyclesPerRef(const std::string &scheme)
{
    const PublishedScheme *entry = publishedScheme(scheme);
    return entry ? entry->cyclesPerRef : unpublished;
}

/** The paper's Dir0B/Dragon bus-cycle ratio at overhead @p q. */
double
paperDir0BOverDragon(double q)
{
    const PublishedScheme &dir0b = *publishedScheme("Dir0B");
    const PublishedScheme &dragon = *publishedScheme("Dragon");
    return (dir0b.cyclesPerRef + q * dir0b.transactionsPerRef)
        / (dragon.cyclesPerRef + q * dragon.transactionsPerRef);
}

void
printTable4(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    eventFrequencyTable(grid).print(os);

    // Section 5's coherence share of the miss rate: Dir0B's misses
    // beyond the native (Dragon) rate are coherence misses.
    const SchemeResults *dir0b = findScheme(grid, "Dir0B");
    const SchemeResults *dragon = findScheme(grid, "Dragon");
    if (!dir0b || !dragon)
        return;
    const auto miss_rate = [](const SchemeResults &scheme) {
        const EventFreqs freqs = scheme.averagedFreqs();
        return freqs.get(EventType::RdMiss)
            + freqs.get(EventType::WrtMiss)
            + freqs.get(EventType::RmFirstRef)
            + freqs.get(EventType::WmFirstRef);
    };
    const double native = miss_rate(*dragon);
    const double dir0b_miss = miss_rate(*dir0b);
    os << "\nData miss rates (incl. first refs): Dir0B "
       << pct(dir0b_miss) << "% vs native (Dragon) " << pct(native)
       << "%\n";
    os << "Coherence-related share of the Dir0B miss rate: "
       << pct((dir0b_miss - native) / dir0b_miss) << "%  (paper: "
       << TextTable::fixed(100.0 * published().coherenceMissShare, 0)
       << "%)\n";
}

void
printTable5(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const BusCosts pipe = paperPipelinedCosts();
    TextTable pipelined = costBreakdownTable(grid, pipe);
    std::vector<std::string> paper_row{"(paper cumulative)"};
    bool any_published = false;
    for (const auto &scheme : grid) {
        const double value = paperCyclesPerRef(scheme.scheme);
        any_published = any_published || !std::isnan(value);
        paper_row.push_back(paperCell(value, 4));
    }
    if (any_published)
        pipelined.addRow(std::move(paper_row));
    pipelined.print(os);

    os << "\nTable 5b: bus cycles per reference (non-pipelined bus)\n";
    costBreakdownTable(grid, paperNonPipelinedCosts()).print(os);

    os << "\nNote: directory accesses always overlap memory accesses "
          "in Dir1NB\n(dir access row 0), and Dir0B's directory "
          "bandwidth is only slightly\nhigher than its memory "
          "bandwidth, defusing the classic bottleneck\nconcern "
          "(Section 5).\n";

    // Section 5's shared-bus scaling estimate for the best scheme.
    const SchemeResults *best = nullptr;
    CycleBreakdown best_cost;
    for (const auto &scheme : grid) {
        const CycleBreakdown cost = scheme.averagedCost(pipe);
        if (!best || cost.total() < best_cost.total()) {
            best = &scheme;
            best_cost = cost;
        }
    }
    const PublishedNumbers &paper = published();
    os << "\nShared-bus estimate: with the best scheme (" << best->scheme
       << ") at " << cyc(best_cost.total()) << " cycles/ref,\n"
       << TextTable::fixed(paper.estimateMips, 0)
       << "-MIPS processors and a "
       << TextTable::fixed(paper.estimateBusCycleNs, 0)
       << "ns bus support about "
       << TextTable::fixed(
              effectiveProcessorLimit(best_cost, paper.estimateMips,
                                      paper.estimateBusCycleNs),
              1)
       << " effective\nprocessors (paper: ~"
       << TextTable::fixed(paper.estimateProcessors, 0) << ").\n";
}

void
printFigure1(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const char *separator = "";
    for (const auto &scheme : grid) {
        const Histogram merged = scheme.mergedCleanWriteHolders();
        if (merged.samples() == 0)
            continue;
        os << separator << scheme.scheme << ":\n";
        separator = "\n";
        invalidationHistogramTable(scheme).print(os);
        os << "\nwrites to previously-clean blocks invalidating "
              "<= 1 cache: "
           << pct(merged.fractionAtMost(1)) << "%  (paper: over "
           << TextTable::fixed(
                  100.0 * published().cleanWritesAtMostOneInval, 0)
           << "%)\n";
        os << "mean invalidations per such write: "
           << TextTable::fixed(merged.mean(), 2) << " ("
           << TextTable::grouped(merged.samples()) << " writes)\n";
    }
}

void
printFigure2(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    busCyclesAveragedTable(grid).print(os);
    os << "\nExpected shape (paper): Dir1NB >> WTI > Dir0B > Dragon, "
          "with the ordering\nindependent of bus sophistication; "
          "Dir0B within ~"
       << TextTable::fixed(paperDir0BOverDragon(0.0), 1)
       << "x of Dragon.\n";
}

void
printFigure3(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    busCyclesPerTraceTable(grid).print(os);
    os << "\nExpected shape (paper): pops and thor similar, pero much "
          "smaller (its\nfraction of shared references is much "
          "lower).\n";
}

void
printFigure4(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const BusCosts costs = paperPipelinedCosts();
    TextTable table({"scheme", "dir", "inv", "wb", "memacc", "wt/wup",
                     "total cyc/ref"});
    for (const auto &scheme : grid) {
        const CycleBreakdown b = scheme.averagedCost(costs);
        const double total = b.total();
        const auto frac = [total](double part) {
            return TextTable::pct(
                total == 0.0 ? 0.0 : 100.0 * part / total, 1);
        };
        table.addRow({
            scheme.scheme,
            frac(b.dirAccess),
            frac(b.invalidate),
            frac(b.writeBack),
            frac(b.memAccess),
            frac(b.writeThroughOrUpdate),
            cyc(total),
        });
    }
    table.print(os);
    os << "\nExpected shape (paper): Dir1NB memacc-dominated; "
          "WTI wt-dominated; Dragon\nroughly even between memacc and "
          "wup; Dir0B dir share small (directory\nbandwidth is not a "
          "bottleneck).\n";
}

void
printFigure5(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const BusCosts costs = paperPipelinedCosts();
    const BusCosts nonpipe = paperNonPipelinedCosts();
    double max_cpt = 0.0;
    for (const auto &scheme : grid) {
        max_cpt = std::max(
            max_cpt, scheme.averagedCost(costs).cyclesPerTransaction());
    }
    TextTable table({"scheme", "txns/ref", "pipelined", "non-pipelined",
                     "bar(pipelined)"});
    for (const auto &scheme : grid) {
        const CycleBreakdown b = scheme.averagedCost(costs);
        table.addRow({
            scheme.scheme,
            cyc(b.transactions),
            TextTable::fixed(b.cyclesPerTransaction(), 2),
            TextTable::fixed(
                scheme.averagedCost(nonpipe).cyclesPerTransaction(), 2),
            asciiBar(b.cyclesPerTransaction(), max_cpt, 40),
        });
    }
    table.print(os);
    os << "\nExpected shape (paper): Dragon has the shortest average "
          "transaction, so\nits advantage shrinks once fixed "
          "per-transaction costs are added\n(see Section 5.1).\n";
}

void
printSection51(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const BusCosts costs = paperPipelinedCosts();
    std::vector<CycleBreakdown> breakdowns;
    os << "Measured linear models (pipelined):\n";
    for (const auto &scheme : grid) {
        const CycleBreakdown b = scheme.averagedCost(costs);
        breakdowns.push_back(b);
        os << "  " << scheme.scheme << ": " << cyc(b.total()) << " + "
           << cyc(b.transactions) << " * q";
        const PublishedScheme *paper = publishedScheme(scheme.scheme);
        if (paper && !std::isnan(paper->transactionsPerRef)) {
            os << "  (paper: " << cyc(paper->cyclesPerRef) << " + "
               << cyc(paper->transactionsPerRef) << "q)";
        }
        os << '\n';
    }

    std::vector<std::string> header{"q"};
    for (const auto &scheme : grid)
        header.push_back(scheme.scheme);
    header.push_back("Dir0B/Dragon");
    TextTable table(std::move(header));
    const CycleBreakdown dir0b =
        findScheme(grid, "Dir0B")->averagedCost(costs);
    const CycleBreakdown dragon =
        findScheme(grid, "Dragon")->averagedCost(costs);
    for (const double q : {0.0, 0.5, 1.0, 2.0, 3.0, 4.0}) {
        std::vector<std::string> row{TextTable::fixed(q, 1)};
        for (const CycleBreakdown &b : breakdowns)
            row.push_back(cyc(b.totalWithOverhead(q)));
        row.push_back(TextTable::fixed(
            dir0b.totalWithOverhead(q) / dragon.totalWithOverhead(q),
            3));
        table.addRow(std::move(row));
    }
    os << '\n';
    table.print(os);

    os << "\nExpected shape (paper): the Dir0B/Dragon ratio falls from ~"
       << TextTable::fixed(paperDir0BOverDragon(0.0), 2)
       << " at q=0\ntoward ~"
       << TextTable::fixed(paperDir0BOverDragon(1.0), 2)
       << " at q=1 — fixed costs weigh on Dragon's many short\n"
          "transactions.\n";
}

void
printSection6(std::ostream &os, const std::vector<SchemeResults> &grid)
{
    const BusCosts costs = paperPipelinedCosts();

    // The Dir_i families plus the named schemes.
    TextTable table({"scheme", "cycles/ref", "invals(directed)",
                     "broadcasts", "overflow invals"});
    for (const auto &scheme : grid) {
        const OpCounts ops = scheme.mergedOps();
        table.addRow({
            scheme.scheme,
            cyc(scheme.averagedCost(costs).total()),
            TextTable::grouped(ops.invalMsgs),
            TextTable::grouped(ops.broadcastInvals),
            TextTable::grouped(ops.overflowInvals),
        });
    }
    table.print(os);
    os << "\nDirCV is the Section 6 coarse-vector code (2*log2 n bits): "
          "limited\nbroadcasts to a superset of the sharers. YenFu adds "
          "the single bit to\nthe full map: directory waits saved, bus "
          "accesses unchanged.\n";

    // DirN NB's sequential invalidations against Dir0B's broadcast.
    const SchemeResults &dir0b_scheme = *findScheme(grid, "Dir0B");
    const double dir0b = dir0b_scheme.averagedCost(costs).total();
    const double dirnnb =
        findScheme(grid, "DirNNB")->averagedCost(costs).total();
    const double paper_dir0b = publishedScheme("Dir0B")->cyclesPerRef;
    const double paper_dirnnb = publishedScheme("DirNNB")->cyclesPerRef;
    os << "\nSequential invalidation penalty: " << cyc(dirnnb - dir0b)
       << " cycles/ref ("
       << TextTable::pct(100.0 * (dirnnb / dir0b - 1.0), 2)
       << "; paper: " << cyc(paper_dir0b) << " -> " << cyc(paper_dirnnb)
       << ", +"
       << TextTable::pct(100.0 * (paper_dirnnb / paper_dir0b - 1.0), 1)
       << ")\n";

    // Dir1B as a function of the broadcast cost b.
    const SchemeResults &dir1b = *findScheme(grid, "Dir1B");
    const double bcast_per_ref =
        static_cast<double>(dir1b.mergedOps().broadcastInvals)
        / static_cast<double>(dir1b.mergedRefs());
    CostOptions base_options;
    base_options.broadcastCost = 0.0;
    const PublishedScheme &paper_dir1b = *publishedScheme("Dir1B");
    os << "\nDir1B broadcast model: "
       << cyc(dir1b.averagedCost(costs, base_options).total()) << " + "
       << TextTable::fixed(bcast_per_ref, 6) << " * b cycles/ref (paper: "
       << cyc(paper_dir1b.cyclesWithoutBroadcasts) << " + "
       << cyc(paper_dir1b.cyclesPerBroadcastCycle) << "b)\n";
    TextTable sweep({"b (cycles)", "Dir1B cycles/ref"});
    for (const double b : {1.0, 2.0, 4.0, 8.0, 16.0}) {
        CostOptions options;
        options.broadcastCost = b;
        sweep.addRow({TextTable::fixed(b, 0),
                      cyc(dir1b.averagedCost(costs, options).total())});
    }
    sweep.print(os);

    // The Berkeley estimate from Dir0B's frequencies.
    const CycleBreakdown berkeley_estimate = costFromFreqs(
        SchemeKind::Berkeley, dir0b_scheme.averagedFreqs(), costs,
        dir0b_scheme.mergedProfile());
    const double dragon =
        findScheme(grid, "Dragon")->averagedCost(costs).total();
    os << "\nBerkeley estimate (Dir0B frequencies, zero directory "
          "cost): "
       << cyc(berkeley_estimate.total()) << "\n  vs Dir0B " << cyc(dir0b)
       << ", Dragon " << cyc(dragon)
       << " -- roughly midway, as the paper observes.\n";

    // Directory storage per memory block.
    os << "\nDirectory storage (bits per memory block):\n";
    TextTable storage({"caches n", "full-map", "two-bit", "Dir1B",
                       "Dir2B", "coarse-vector"});
    for (const unsigned n : {4u, 16u, 64u, 256u, 1024u}) {
        std::vector<std::string> row{std::to_string(n)};
        for (const char *scheme :
             {"DirNNB", "Dir0B", "Dir1B", "Dir2B", "DirCV"}) {
            row.push_back(TextTable::fixed(
                *directoryBitsPerBlock(parseScheme(scheme), n), 0));
        }
        storage.addRow(std::move(row));
    }
    storage.print(os);
    os << "\nExpected shape: limited-pointer and coarse-vector storage "
          "grows with\nlog2(n) while the full map grows linearly -- the "
          "paper's case for\nDir_i directories at scale.\n";
}

} // namespace

TextTable
eventFrequencyTable(const std::vector<SchemeResults> &grid)
{
    fatalIf(grid.empty(), "no results to report");
    std::vector<std::string> header{"Event"};
    for (const auto &scheme : grid) {
        header.push_back(scheme.scheme);
        if (publishedScheme(scheme.scheme))
            header.push_back("(paper)");
    }
    TextTable table(std::move(header));

    std::vector<EventFreqs> freqs;
    freqs.reserve(grid.size());
    for (const auto &scheme : grid)
        freqs.push_back(scheme.averagedFreqs());

    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        std::vector<std::string> row{toString(event)};
        for (std::size_t s = 0; s < grid.size(); ++s) {
            const bool applies = cellApplies(event, grid[s].scheme);
            row.push_back(applies ? TextTable::fixed(
                                        100.0 * freqs[s].get(event), 2)
                                  : "-");
            if (const PublishedScheme *paper =
                    publishedScheme(grid[s].scheme)) {
                row.push_back(paperCell(
                    applies ? paper->eventPercent[e] : unpublished, 2));
            }
        }
        table.addRow(std::move(row));
    }
    return table;
}

TextTable
costBreakdownTable(const std::vector<SchemeResults> &grid,
                   const BusCosts &costs)
{
    fatalIf(grid.empty(), "no results to report");
    std::vector<std::string> header{"Access type"};
    for (const auto &scheme : grid)
        header.push_back(scheme.scheme);
    TextTable table(std::move(header));

    std::vector<CycleBreakdown> breakdowns;
    breakdowns.reserve(grid.size());
    for (const auto &scheme : grid)
        breakdowns.push_back(scheme.averagedCost(costs));

    const auto add_row = [&](const char *label, auto accessor) {
        std::vector<std::string> row{label};
        for (const auto &breakdown : breakdowns)
            row.push_back(cyc(accessor(breakdown)));
        table.addRow(std::move(row));
    };
    add_row("invalidate", [](const CycleBreakdown &b) {
        return b.invalidate;
    });
    add_row("write-back", [](const CycleBreakdown &b) {
        return b.writeBack;
    });
    add_row("mem access", [](const CycleBreakdown &b) {
        return b.memAccess;
    });
    add_row("wt or wup", [](const CycleBreakdown &b) {
        return b.writeThroughOrUpdate;
    });
    add_row("dir access", [](const CycleBreakdown &b) {
        return b.dirAccess;
    });
    table.addRule();
    add_row("cumulative", [](const CycleBreakdown &b) {
        return b.total();
    });
    return table;
}

TextTable
invalidationHistogramTable(const SchemeResults &scheme)
{
    std::vector<std::string> header{"other caches"};
    for (const auto &result : scheme.perTrace)
        header.push_back(result.traceName);
    header.push_back("merged");
    header.push_back("bar");
    TextTable table(std::move(header));

    const Histogram merged = scheme.mergedCleanWriteHolders();
    for (std::uint64_t v = 0; v <= merged.maxValue(); ++v) {
        std::vector<std::string> row{std::to_string(v)};
        for (const auto &result : scheme.perTrace)
            row.push_back(pct(result.cleanWriteHolders.fraction(v)));
        row.push_back(pct(merged.fraction(v)));
        row.push_back(asciiBar(merged.fraction(v), 1.0, 40));
        table.addRow(std::move(row));
    }
    return table;
}

TextTable
busCyclesAveragedTable(const std::vector<SchemeResults> &grid)
{
    fatalIf(grid.empty(), "no results to report");
    const BusCosts pipe = paperPipelinedCosts();
    const BusCosts nonpipe = paperNonPipelinedCosts();
    double max_total = 0.0;
    for (const auto &scheme : grid) {
        max_total = std::max(max_total,
                             scheme.averagedCost(nonpipe).total());
    }

    TextTable table({"scheme", "pipelined", "non-pipelined", "txns/ref",
                     "paper(pipe)", "bar(non-pipelined)"});
    for (const auto &scheme : grid) {
        const CycleBreakdown low = scheme.averagedCost(pipe);
        const double high = scheme.averagedCost(nonpipe).total();
        table.addRow({
            scheme.scheme,
            cyc(low.total()),
            cyc(high),
            cyc(low.transactions),
            paperCell(paperCyclesPerRef(scheme.scheme), 4),
            asciiBar(high, max_total, 40),
        });
    }
    return table;
}

TextTable
busCyclesPerTraceTable(const std::vector<SchemeResults> &grid)
{
    fatalIf(grid.empty(), "no results to report");
    const BusCosts pipe = paperPipelinedCosts();
    const BusCosts nonpipe = paperNonPipelinedCosts();
    double max_total = 0.0;
    for (const auto &scheme : grid) {
        for (const auto &result : scheme.perTrace)
            max_total = std::max(max_total, result.cost(pipe).total());
    }

    TextTable table({"scheme", "trace", "pipelined", "non-pipelined",
                     "bar(pipelined)"});
    for (const auto &scheme : grid) {
        for (const auto &result : scheme.perTrace) {
            const double low = result.cost(pipe).total();
            table.addRow({
                scheme.scheme,
                result.traceName,
                cyc(low),
                cyc(result.cost(nonpipe).total()),
                asciiBar(low, max_total, 40),
            });
        }
    }
    return table;
}

const std::vector<ReportView> &
reportViews()
{
    static const std::vector<ReportView> views = {
        {"table4",
         "Table 4: event frequencies (percent of all references, "
         "averaged over traces)",
         {},
         printTable4},
        {"table5", "Table 5: bus cycles per reference (pipelined bus)",
         {},
         printTable5},
        {"fig1",
         "Figure 1: percent of writes to previously-clean blocks that "
         "invalidate k other caches",
         {},
         printFigure1},
        {"fig2",
         "Figure 2: bus cycles per reference on both buses (averaged "
         "over traces)",
         {},
         printFigure2},
        {"fig3",
         "Figure 3: bus cycles per reference on both buses (per trace)",
         {},
         printFigure3},
        {"fig4",
         "Figure 4: bus-cycle breakdown as a fraction of each scheme's "
         "total (pipelined bus)",
         {},
         printFigure4},
        {"fig5",
         "Figure 5: average bus cycles per bus transaction (both "
         "buses)",
         {},
         printFigure5},
        {"sec5.1",
         "Section 5.1: bus cycles per reference with a fixed overhead "
         "of q cycles per transaction",
         {"Dir0B", "Dragon"},
         printSection51},
        {"sec6",
         "Section 6: scalable directory alternatives (pipelined bus)",
         {"Dir0B", "DirNNB", "Dir1B", "Dir2B", "Dir4B", "Dir1NB",
          "Dir2NB", "Dir4NB", "DirCV", "YenFu", "Berkeley", "Dragon"},
         printSection6},
    };
    return views;
}

const ReportView *
findView(const std::string &name)
{
    for (const ReportView &view : reportViews()) {
        if (view.name == name)
            return &view;
    }
    return nullptr;
}

void
printView(std::ostream &os, const ReportView &view,
          const std::vector<SchemeResults> &grid)
{
    for (const std::string &scheme : view.schemes) {
        if (!findScheme(grid, scheme))
            return;
    }
    std::ostringstream body;
    view.body(body, grid);
    if (body.str().empty())
        return;
    os << view.title << '\n' << body.str() << '\n';
}

TextTable
traceStatsTable(const std::vector<TraceStats> &traces)
{
    std::vector<std::string> header{"Trace"};
    for (const TraceStats &stats : traces)
        header.push_back(stats.name);
    TextTable table(std::move(header));
    const auto add_row = [&](const char *label, auto format) {
        std::vector<std::string> row{label};
        for (const TraceStats &stats : traces)
            row.push_back(format(stats));
        table.addRow(std::move(row));
    };
    const auto count = [&](const char *label,
                           std::uint64_t TraceStats::*field) {
        add_row(label, [field](const TraceStats &stats) {
            return TextTable::grouped(stats.*field);
        });
    };
    const auto ratio = [&](const char *label,
                           double (TraceStats::*value)() const,
                           int digits) {
        add_row(label, [value, digits](const TraceStats &stats) {
            return TextTable::fixed((stats.*value)(), digits);
        });
    };
    count("Refs", &TraceStats::refs);
    count("Instr", &TraceStats::instr);
    count("DRd", &TraceStats::dataReads);
    count("DWrt", &TraceStats::dataWrites);
    count("User", &TraceStats::user);
    count("Sys", &TraceStats::sys);
    ratio("DRd/DWrt", &TraceStats::readWriteRatio, 2);
    ratio("spin/DRd", &TraceStats::spinReadFraction, 3);
    table.addRule();
    add_row("cpus", [](const TraceStats &stats) {
        return std::to_string(stats.numCpus);
    });
    count("processes", &TraceStats::numProcesses);
    count("lock spin reads", &TraceStats::lockSpinReads);
    count("lock writes", &TraceStats::lockWrites);
    ratio("Sys/Refs", &TraceStats::systemFraction, 3);
    count("data blocks", &TraceStats::dataBlocks);
    count("shared data blocks", &TraceStats::sharedDataBlocks);
    ratio("shared/data blocks", &TraceStats::sharedBlockFraction, 3);
    return table;
}

} // namespace dirsim
