/**
 * @file
 * `repro`: reproduce the paper's tables and figures on the standard
 * synthetic suite (sim/suite.hh).
 *
 * Usage: repro <artifact>... | all [--jsonl <path>] [--chrome <path>]
 *
 * Artifacts, in paper order: table1 table2 table3 table4 table5 fig1
 * fig2 fig3 fig4 fig5 sec5.1 sec5.2 sec6. Each artifact that comes
 * from one grid is a sim/report view, printed through printView()
 * byte for byte as `dirsim_report` prints it from this run's --jsonl.
 * Tables 1-2 and Section 5.2 render here: their inputs are bus
 * constants or a second, lock-filtered grid; Table 3 prints the
 * suite's statistics through traceStatsTable(). The suite is
 * generated once and the paper grid runs once per process; --jsonl
 * and --chrome record the first grid the process runs
 * (bench_common.hh).
 */

#include <algorithm>
#include <iostream>

#include "common/bench_common.hh"

namespace
{

using namespace dirsim;

void
printTable1()
{
    // The model's inputs are the paper's Table 1 (paperBusTiming()).
    const BusTiming timing = paperBusTiming();
    TextTable table({"operation", "cycles"});
    table.addRow({"Transfer 1 data word",
                  std::to_string(timing.transferWord)});
    table.addRow({"Invalidate", std::to_string(timing.invalidate)});
    table.addRow({"Wait for Directory",
                  std::to_string(timing.waitDirectory)});
    table.addRow({"Wait for Memory", std::to_string(timing.waitMemory)});
    table.addRow({"Wait for Cache", std::to_string(timing.waitCache)});
    table.print(std::cout);
}

void
printTable2()
{
    const BusCosts pipe = paperPipelinedCosts();
    const BusCosts nonpipe = paperNonPipelinedCosts();
    const PublishedNumbers &paper = published();
    TextTable table({"access type", "pipelined", "(paper)",
                     "non-pipelined", "(paper)"});
    const auto row = [&](const char *what, double BusCosts::*cost) {
        table.addRow({what, TextTable::fixed(pipe.*cost, 0),
                      TextTable::fixed(paper.pipelined.*cost, 0),
                      TextTable::fixed(nonpipe.*cost, 0),
                      TextTable::fixed(paper.nonPipelined.*cost, 0)});
    };
    row("memory access", &BusCosts::memoryAccess);
    row("non-local cache access", &BusCosts::cacheAccess);
    row("write-back (data cycles)", &BusCosts::writeBack);
    row("write-through / write update", &BusCosts::writeThrough);
    row("directory check", &BusCosts::dirCheck);
    row("invalidate", &BusCosts::invalidate);
    table.print(std::cout);

    std::cout << "\nNote: a dirty-block supply costs the write-back "
                 "data cycles plus a\nrequest of "
              << cyc(pipe.dirtySupplyRequest)
              << " (pipelined) / "
              << cyc(nonpipe.dirtySupplyRequest)
              << " (non-pipelined) cycles,\nso it equals the non-local "
                 "cache access cost on both buses.\n";
}

void
printTable3()
{
    std::vector<TraceStats> stats;
    for (const auto &trace : bench::suite())
        stats.push_back(computeTraceStats(trace));
    traceStatsTable(stats).print(std::cout);

    std::cout << "\nSection 4.4 checks: POPS/THOR show heavy "
                 "test-and-test-and-set spinning\n(paper: roughly one "
                 "third of reads), PERO's high read-to-write ratio\n"
                 "comes from the algorithm, and OS activity is "
                 "roughly 10% of references.\n";
}

/** Re-run the paper grid with every lock reference excluded. */
void
printSection52()
{
    const BusCosts costs = paperPipelinedCosts();
    const auto &grid = bench::paperGrid();

    std::vector<Trace> filtered;
    for (const auto &trace : bench::suite())
        filtered.push_back(excludeLockRefs(trace));
    const auto filtered_grid =
        ExperimentRunner()
            .run(parseSchemes(paperSchemes()), filtered)
            .schemes;

    TextTable table({"scheme", "with locks", "locks excluded",
                     "change"});
    for (const auto &scheme : grid) {
        const double before = scheme.averagedCost(costs).total();
        const double after = findScheme(filtered_grid, scheme.scheme)
                                 ->averagedCost(costs)
                                 .total();
        table.addRow({
            scheme.scheme,
            cyc(before),
            cyc(after),
            TextTable::pct(100.0 * (after - before) / before, 1),
        });
    }
    table.print(std::cout);

    const PublishedScheme &dir1nb = *publishedScheme("Dir1NB");
    std::cout << "\nExpected shape (paper): excluding lock tests "
                 "leaves Dir0B essentially\nunchanged but improves "
                 "Dir1NB by roughly a factor of 2-3 ("
              << TextTable::fixed(dir1nb.cyclesPerRef, 2) << " -> "
              << TextTable::fixed(dir1nb.cyclesWithoutLocks, 2)
              << "\nin the paper), because locks ping-pong between "
                 "spinning caches when a\nblock may live in only one "
                 "cache.\n";
}

/** An artifact this driver renders itself. */
struct OwnArtifact
{
    const char *name;
    const char *title;
    void (*print)();
};

const OwnArtifact ownArtifacts[] = {
    {"table1",
     "Table 1: timing for fundamental bus operations (cycles; the "
     "model's inputs)",
     printTable1},
    {"table2", "Table 2: summary of bus cycle costs", printTable2},
    {"table3", "Table 3: summary of trace characteristics", printTable3},
    {"sec5.2",
     "Section 5.2: impact of spin-lock references (pipelined bus)",
     printSection52},
};

/** Every artifact, in paper order. */
const std::vector<std::string> artifactNames = {
    "table1", "table2", "table3", "table4", "table5", "fig1",  "fig2",
    "fig3",   "fig4",   "fig5",   "sec5.1", "sec5.2", "sec6"};

void
printArtifact(const std::string &name)
{
    for (const OwnArtifact &own : ownArtifacts) {
        if (name == own.name) {
            std::cout << own.title << '\n';
            own.print();
            std::cout << '\n';
            return;
        }
    }
    const ReportView &view = *findView(name);
    // A view reads the paper grid unless it needs schemes beyond the
    // paper's four (Section 6 runs its own grid).
    const auto &paper = paperSchemes();
    const bool on_paper_grid = std::all_of(
        view.schemes.begin(), view.schemes.end(),
        [&](const std::string &scheme) {
            return std::find(paper.begin(), paper.end(), scheme)
                != paper.end();
        });
    if (on_paper_grid)
        printView(std::cout, view, bench::paperGrid());
    else
        printView(std::cout, view, bench::gridFor(view.schemes));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> operands =
        bench::initArtifacts(argc, argv, "<artifact>... | all");
    std::vector<std::string> names;
    std::string usage_error = operands.empty() ? "no artifact named" : "";
    for (const std::string &operand : operands) {
        if (operand == "all") {
            names.insert(names.end(), artifactNames.begin(),
                         artifactNames.end());
        } else if (std::find(artifactNames.begin(), artifactNames.end(),
                             operand)
                   != artifactNames.end()) {
            names.push_back(operand);
        } else {
            usage_error = "unknown artifact '" + operand + "'";
        }
    }
    if (!usage_error.empty()) {
        std::cerr << "error: " << usage_error << "\nartifacts:";
        for (const std::string &name : artifactNames)
            std::cerr << ' ' << name;
        std::cerr << " all\nusage: " << argv[0]
                  << " <artifact>... | all [--jsonl <path>] "
                     "[--chrome <path>]\n";
        return 1;
    }

    std::string joined;
    for (const std::string &operand : operands)
        joined += (joined.empty() ? "" : " ") + operand;
    bench::banner(joined, "measured on the synthetic suite; \"paper\" "
                          "marks the published values");
    try {
        for (const std::string &name : names)
            printArtifact(name);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
