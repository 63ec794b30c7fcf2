/**
 * @file
 * Extension: why the paper's applications spin with
 * test-and-test-and-set. The same workload is generated twice — once
 * with T&T&S waiters (read spins, the paper's model) and once with
 * raw test-and-set waiters (every failed attempt writes the lock
 * word) — and run through the schemes. Failed T&S writes dirty the
 * lock block and invalidate every other waiter's copy, so even the
 * multi-copy directory schemes degrade toward Dir1NB-like lock
 * ping-pong.
 */

#include <iostream>

#include "common/bench_common.hh"

int
main()
{
    using namespace dirsim;
    bench::banner("Extension: lock primitive",
                  "Test-and-test-and-set vs raw test-and-set "
                  "spinning (pipelined bus)");

    const BusCosts costs = paperPipelinedCosts();
    const SuiteParams params = SuiteParams::fromEnvironment();
    const std::uint64_t refs =
        std::max<std::uint64_t>(params.refsPerTrace / 3, 100'000);

    WorkloadProfile tts = popsProfile();
    WorkloadProfile ts = popsProfile();
    ts.spinWithTestAndSet = true;
    const Trace tts_trace = generateTrace(tts, refs, 777);
    const Trace ts_trace = generateTrace(ts, refs, 777);

    TextTable table({"scheme", "T&T&S", "raw T&S", "slowdown"});
    for (const char *scheme :
         {"Dir0B", "DirNNB", "Dragon", "WTI", "Dir1NB"}) {
        const SchemeSpec spec = parseScheme(scheme);
        const double with_tts =
            simulateTrace(tts_trace, spec).cost(costs).total();
        const double with_ts =
            simulateTrace(ts_trace, spec).cost(costs).total();
        table.addRow({
            scheme,
            cyc(with_tts),
            cyc(with_ts),
            TextTable::fixed(with_ts / with_tts, 2) + "x",
        });
    }
    table.print(std::cout);

    std::cout << "\nReading guide: with T&T&S, waiters' test reads hit "
                 "in their caches\nbetween handoffs, so Dir0B-class "
                 "schemes pay only per handoff. Raw\nT&S turns every "
                 "failed attempt into an invalidation (and, in Dragon,"
                 "\na write update), so lock traffic scales with WAIT "
                 "TIME instead of\nhandoffs — the pathology behind the "
                 "paper's careful lock treatment\n(Section 5.2).\n";
    return 0;
}
