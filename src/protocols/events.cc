#include "protocols/events.hh"

#include "common/logging.hh"

namespace dirsim
{

const char *
toString(EventType event)
{
    switch (event) {
      case EventType::Instr:
        return "instr";
      case EventType::Read:
        return "read";
      case EventType::RdHit:
        return "rd-hit";
      case EventType::RdMiss:
        return "rd-miss(rm)";
      case EventType::RmBlkCln:
        return "rm-blk-cln";
      case EventType::RmBlkDrty:
        return "rm-blk-drty";
      case EventType::RmFirstRef:
        return "rm-first-ref";
      case EventType::Write:
        return "write";
      case EventType::WrtHit:
        return "wrt-hit(wh)";
      case EventType::WhBlkCln:
        return "wh-blk-cln";
      case EventType::WhBlkDrty:
        return "wh-blk-drty";
      case EventType::WhDistrib:
        return "wh-distrib";
      case EventType::WhLocal:
        return "wh-local";
      case EventType::WrtMiss:
        return "wrt-miss(wm)";
      case EventType::WmBlkCln:
        return "wm-blk-cln";
      case EventType::WmBlkDrty:
        return "wm-blk-drty";
      case EventType::WmFirstRef:
        return "wm-first-ref";
      case EventType::NumEvents:
        break;
    }
    panic("unknown EventType ", static_cast<unsigned>(event));
}

std::uint64_t
EventCounts::totalRefs() const
{
    return count(EventType::Instr) + count(EventType::Read)
        + count(EventType::Write);
}

double
EventCounts::fraction(EventType event) const
{
    const auto total = totalRefs();
    if (total == 0)
        return 0.0;
    return static_cast<double>(count(event))
        / static_cast<double>(total);
}

double
EventCounts::percentOfRefs(EventType event) const
{
    return 100.0 * fraction(event);
}

void
EventCounts::merge(const EventCounts &other)
{
    for (std::size_t i = 0; i < numEventTypes; ++i)
        counts[i] += other.counts[i];
}

void
EventCounts::subtract(const EventCounts &other)
{
    for (std::size_t i = 0; i < numEventTypes; ++i) {
        panicIfNot(counts[i] >= other.counts[i],
                   "EventCounts::subtract underflow on ",
                   toString(static_cast<EventType>(i)));
        counts[i] -= other.counts[i];
    }
}

EventFreqs
EventFreqs::fromCounts(const EventCounts &counts)
{
    EventFreqs freqs;
    for (std::size_t i = 0; i < numEventTypes; ++i) {
        const auto event = static_cast<EventType>(i);
        freqs.set(event, counts.fraction(event));
    }
    return freqs;
}

EventFreqs
EventFreqs::average(const std::vector<EventFreqs> &sets)
{
    fatalIf(sets.empty(), "EventFreqs::average of an empty list");
    EventFreqs out;
    for (std::size_t i = 0; i < numEventTypes; ++i) {
        const auto event = static_cast<EventType>(i);
        double sum = 0.0;
        for (const auto &freqs : sets)
            sum += freqs.get(event);
        out.set(event, sum / static_cast<double>(sets.size()));
    }
    return out;
}

double
EventFreqs::readMissNoCopy() const
{
    const double none = get(EventType::RdMiss) - get(EventType::RmBlkCln)
        - get(EventType::RmBlkDrty);
    return none > 0.0 ? none : 0.0;
}

double
EventFreqs::writeMissNoCopy() const
{
    const double none = get(EventType::WrtMiss)
        - get(EventType::WmBlkCln) - get(EventType::WmBlkDrty);
    return none > 0.0 ? none : 0.0;
}

namespace
{

void
subtractField(std::uint64_t &field, std::uint64_t removed,
              const char *what)
{
    panicIfNot(field >= removed,
               "OpCounts::subtract underflow on ", what);
    field -= removed;
}

} // namespace

void
OpCounts::subtract(const OpCounts &other)
{
    subtractField(memSupplies, other.memSupplies, "memSupplies");
    subtractField(cacheSupplies, other.cacheSupplies, "cacheSupplies");
    subtractField(dirtySupplies, other.dirtySupplies, "dirtySupplies");
    subtractField(invalMsgs, other.invalMsgs, "invalMsgs");
    subtractField(broadcastInvals, other.broadcastInvals,
                  "broadcastInvals");
    subtractField(dirChecks, other.dirChecks, "dirChecks");
    subtractField(writeThroughs, other.writeThroughs, "writeThroughs");
    subtractField(writeUpdates, other.writeUpdates, "writeUpdates");
    subtractField(overflowInvals, other.overflowInvals,
                  "overflowInvals");
    subtractField(evictionWriteBacks, other.evictionWriteBacks,
                  "evictionWriteBacks");
    subtractField(busTransactions, other.busTransactions,
                  "busTransactions");
}

EventType
mostSpecificNewEvent(const EventCounts &before,
                     const EventCounts &after)
{
    // Most specific first: the sub-events a protocol handler records,
    // then the hit/miss classes, then the raw reference kinds.
    static constexpr EventType specificity[] = {
        EventType::RmBlkDrty,  EventType::RmBlkCln,
        EventType::WmBlkDrty,  EventType::WmBlkCln,
        EventType::WhBlkCln,   EventType::WhBlkDrty,
        EventType::WhDistrib,  EventType::WhLocal,
        EventType::RmFirstRef, EventType::WmFirstRef,
        EventType::RdHit,      EventType::RdMiss,
        EventType::WrtHit,     EventType::WrtMiss,
        EventType::Read,       EventType::Write,
        EventType::Instr,
    };
    for (const EventType event : specificity) {
        if (after.count(event) > before.count(event))
            return event;
    }
    panic("mostSpecificNewEvent: no event count advanced");
}

void
OpCounts::merge(const OpCounts &other)
{
    memSupplies += other.memSupplies;
    cacheSupplies += other.cacheSupplies;
    dirtySupplies += other.dirtySupplies;
    invalMsgs += other.invalMsgs;
    broadcastInvals += other.broadcastInvals;
    dirChecks += other.dirChecks;
    writeThroughs += other.writeThroughs;
    writeUpdates += other.writeUpdates;
    overflowInvals += other.overflowInvals;
    evictionWriteBacks += other.evictionWriteBacks;
    busTransactions += other.busTransactions;
}

} // namespace dirsim
