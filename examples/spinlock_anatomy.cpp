/**
 * @file
 * Example: the anatomy of the Section 5.2 spin-lock pathology.
 *
 * Builds a tiny hand-crafted trace of two processes spinning on a
 * test-and-test-and-set lock while a third holds it, and shows why
 * the single-copy Dir1NB scheme melts down while Dir0B barely
 * notices: the spinners' reads ping-pong the lock block between
 * caches under the single-copy rule.
 */

#include <iostream>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

TraceRecord
ref(ProcId pid, RefType type, Addr addr, std::uint8_t flags)
{
    TraceRecord record;
    record.cpu = static_cast<CpuId>(pid);
    record.pid = pid;
    record.type = type;
    record.addr = addr;
    record.flags = flags;
    return record;
}

/** Two waiters spin while pid 0 holds; then a handoff to pid 1. */
Trace
spinScenario(int spin_rounds)
{
    constexpr Addr lock = 0x5000'0000;
    constexpr Addr work = 0x4000'0000;
    Trace trace("spin-anatomy", 4);

    // pid 0 takes the free lock.
    trace.append(ref(0, RefType::Read, lock, flagLockSpin));
    trace.append(ref(0, RefType::Write, lock, flagLockWrite));
    // pids 1 and 2 spin alternately while pid 0 works.
    for (int round = 0; round < spin_rounds; ++round) {
        trace.append(ref(1, RefType::Read, lock, flagLockSpin));
        trace.append(ref(2, RefType::Read, lock, flagLockSpin));
        trace.append(ref(0, RefType::Read, work + 16 * (round % 4),
                         flagNone));
    }
    // pid 0 releases; pid 1 wins the handoff.
    trace.append(ref(0, RefType::Write, lock, flagLockWrite));
    trace.append(ref(1, RefType::Read, lock, flagLockSpin));
    trace.append(ref(1, RefType::Write, lock, flagLockWrite));
    return trace;
}

} // namespace

int
main()
{
    const Trace trace = spinScenario(20);
    const BusCosts bus = paperPipelinedCosts();

    std::cout << "trace: 1 lock holder, 2 spinners, "
              << trace.size() << " references\n\n";

    TextTable table({"scheme", "rd-hit", "rd-miss", "inval msgs",
                     "bus cycles", "cycles/ref"});
    for (const char *scheme : {"Dir1NB", "Dir0B", "DirNNB", "Dragon"}) {
        const SimResult result =
            simulateTrace(trace, parseScheme(scheme));
        const CycleBreakdown cost = result.cost(bus);
        table.addRow({
            scheme,
            std::to_string(result.events.count(EventType::RdHit)),
            std::to_string(result.events.count(EventType::RdMiss)),
            std::to_string(result.ops.invalMsgs
                           + result.ops.broadcastInvals),
            TextTable::fixed(
                cost.total()
                    * static_cast<double>(result.totalRefs), 0),
            TextTable::fixed(cost.total(), 3),
        });
    }
    table.print(std::cout);

    std::cout <<
        "\nWhat happened: under Dir1NB the two spinners steal the "
        "lock block from\neach other on every test, so nearly every "
        "spin read is a miss plus an\ninvalidation. Dir0B lets both "
        "spinners cache the lock word; only the\nrelease/acquire "
        "writes invalidate. This is the paper's explanation for\n"
        "Dir1NB's 6x penalty and its warning for software schemes "
        "that flush\ncritical sections (they behave like Dir1NB).\n\n"
        "Section 5.2's fix in numbers: run the same comparison on "
        "your own traces\nwith trace filters (excludeLockRefs) -- "
        "see `repro sec5.2`.\n";
    return 0;
}
