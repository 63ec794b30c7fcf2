/**
 * @file
 * Extension: the Section 4.4 methodology check. The paper states:
 * "we collected all our statistics based on both process sharing and
 * processor sharing and found that the numbers were not significantly
 * different. The similarity is due to the few instances of process
 * migration in our traces."
 *
 * This bench quantifies that: the same workload is generated at
 * several migration rates and simulated under both cache-assignment
 * models. With rare migration the two agree; as migration grows, the
 * processor-based model inflates sharing (a process's working set is
 * smeared across CPU caches) and the process-based model — the one
 * the paper uses — stays put.
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: sharing model",
                  "Process-based vs processor-based cache assignment "
                  "under migration (Dir0B, pipelined)");

    const BusCosts costs = paperPipelinedCosts();
    const SuiteParams params = SuiteParams::fromEnvironment();
    const std::uint64_t refs =
        std::max<std::uint64_t>(params.refsPerTrace / 3, 100'000);

    TextTable table({"migration prob", "migrations", "by process",
                     "by processor", "divergence"});
    // 0.0002 is the generator default ("few instances of process
    // migration"); larger values show the divergence growing.
    for (const double migration :
         {0.0, 0.0002, 0.002, 0.01, 0.05}) {
        WorkloadProfile profile = popsProfile();
        profile.numProcesses = 4; // one per CPU: swap-based migration
        profile.migrationProb = migration;
        const Trace trace = generateTrace(profile, refs, 4242);

        std::uint64_t migrations = 0;
        {
            // Count distinct (pid, cpu) transitions as a diagnostic.
            std::uint64_t last_cpu[1024];
            for (auto &c : last_cpu)
                c = ~0ull;
            for (const auto &record : trace) {
                const auto slot = record.pid % 1024;
                if (last_cpu[slot] != ~0ull
                    && last_cpu[slot] != record.cpu)
                    ++migrations;
                last_cpu[slot] = record.cpu;
            }
        }

        SimConfig by_process;
        SimConfig by_cpu;
        by_cpu.sharing = SharingModel::ByProcessor;
        const SchemeSpec dir0b = parseScheme("Dir0B");
        const double proc_cost =
            simulateTrace(trace, dir0b, by_process).cost(costs).total();
        const double cpu_cost =
            simulateTrace(trace, dir0b, by_cpu).cost(costs).total();

        table.addRow({
            TextTable::fixed(migration, 3),
            TextTable::grouped(migrations),
            cyc(proc_cost),
            cyc(cpu_cost),
            TextTable::pct(
                100.0 * (cpu_cost - proc_cost)
                    / std::max(proc_cost, 1e-12), 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nReading guide: the processor model charges every "
                 "migration a full\nworking-set re-load and smears one "
                 "process's blocks across CPU caches\n(migration-"
                 "induced sharing), so even rare migration distorts "
                 "the metric.\nThat distortion is exactly why the "
                 "paper measures sharing between\nPROCESSES and why "
                 "its two models agreed: its traces migrated almost\n"
                 "never. At zero migration the models are provably "
                 "identical (first row,\nalso asserted by unit "
                 "test).\n";
    return 0;
}
