#include "obs/record.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace dirsim
{

namespace
{

/** Derive the snake_case key from the Table 4 legend string. */
std::string
sanitizeEventName(const char *legend)
{
    std::string key;
    for (const char *p = legend; *p != '\0'; ++p) {
        if (*p == '(')
            break; // drop the "(rm)" / "(wh)" / "(wm)" shorthands
        key += *p == '-' ? '_' : *p;
    }
    return key;
}

const std::vector<std::string> &
eventKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        out.reserve(numEventTypes);
        for (std::size_t e = 0; e < numEventTypes; ++e)
            out.push_back(sanitizeEventName(
                toString(static_cast<EventType>(e))));
        return out;
    }();
    return keys;
}

/** Append both paper bus-model breakdowns under "costs". */
void
writeCosts(JsonWriter &writer, const CellRecord &record)
{
    const auto one = [&](const char *name, const BusCosts &costs) {
        const CycleBreakdown b = record.cost(costs);
        writer.key(name).beginObject();
        writer.key("dir_access").value(b.dirAccess);
        writer.key("invalidate").value(b.invalidate);
        writer.key("write_back").value(b.writeBack);
        writer.key("mem_access").value(b.memAccess);
        writer.key("wt_or_wup").value(b.writeThroughOrUpdate);
        writer.key("total").value(b.total());
        writer.key("transactions").value(b.transactions);
        writer.endObject();
    };
    writer.key("costs").beginObject();
    one("pipelined", paperPipelinedCosts());
    one("non_pipelined", paperNonPipelinedCosts());
    writer.endObject();
}

} // namespace

const std::string &
eventKey(EventType event)
{
    return eventKeys()[static_cast<std::size_t>(event)];
}

const std::vector<std::pair<const char *, std::uint64_t OpCounts::*>> &
opFields()
{
    static const std::vector<
        std::pair<const char *, std::uint64_t OpCounts::*>>
        fields = {
            {"mem_supplies", &OpCounts::memSupplies},
            {"cache_supplies", &OpCounts::cacheSupplies},
            {"dirty_supplies", &OpCounts::dirtySupplies},
            {"inval_msgs", &OpCounts::invalMsgs},
            {"broadcast_invals", &OpCounts::broadcastInvals},
            {"dir_checks", &OpCounts::dirChecks},
            {"write_throughs", &OpCounts::writeThroughs},
            {"write_updates", &OpCounts::writeUpdates},
            {"overflow_invals", &OpCounts::overflowInvals},
            {"eviction_write_backs", &OpCounts::evictionWriteBacks},
            {"bus_transactions", &OpCounts::busTransactions},
        };
    return fields;
}

CycleBreakdown
CellRecord::cost(const BusCosts &costs) const
{
    return costFromOps(ops, totalRefs, costs, {});
}

SimResult
CellRecord::toSimResult() const
{
    SimResult result;
    result.scheme = scheme;
    result.traceName = trace;
    result.numCaches = numCaches;
    result.totalRefs = totalRefs;
    result.events = events;
    result.ops = ops;
    result.cleanWriteHolders = cleanWriteHolders;
    result.phases = phases;
    return result;
}

CellRecord
CellRecord::fromCell(const SimResult &result, const CellTiming &timing,
                     std::string trace_path)
{
    CellRecord record;
    record.scheme = result.scheme;
    record.trace = result.traceName;
    record.tracePath = std::move(trace_path);
    record.numCaches = result.numCaches;
    record.totalRefs = result.totalRefs;
    record.events = result.events;
    record.ops = result.ops;
    record.cleanWriteHolders = result.cleanWriteHolders;
    record.wallSeconds = timing.wallSeconds;
    record.phases = result.phases;
    return record;
}

void
CellRecord::writeJson(JsonWriter &writer) const
{
    writer.beginObject();
    writer.key("kind").value("cell");
    writer.key("scheme").value(scheme);
    writer.key("trace").value(trace);
    if (tracePath.empty())
        writer.key("trace_path").null();
    else
        writer.key("trace_path").value(tracePath);
    writer.key("caches").value(numCaches);
    writer.key("total_refs").value(totalRefs);

    writer.key("events").beginObject();
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        writer.key(eventKey(event)).value(events.count(event));
    }
    writer.endObject();

    writer.key("ops").beginObject();
    for (const auto &[name, member] : opFields())
        writer.key(name).value(ops.*member);
    writer.endObject();

    writer.key("clean_write_holders").beginArray();
    for (const std::uint64_t count : cleanWriteHolders.buckets())
        writer.value(count);
    writer.endArray();

    writer.key("wall_seconds").value(wallSeconds);
    writer.key("refs_per_second").value(refsPerSecond());

    writer.key("phases_ns").beginObject();
    for (std::size_t p = 0; p < numPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        writer.key(toString(phase)).value(phases.get(phase));
    }
    writer.endObject();

    writeCosts(writer, *this);
    writer.endObject();
}

CellRecord
CellRecord::fromJson(const JsonValue &json)
{
    fatalIf(!json.isObject(), "cell record is not a JSON object");
    CellRecord record;
    record.scheme = json.at("scheme").asString();
    record.trace = json.at("trace").asString();
    const JsonValue &path = json.at("trace_path");
    if (!path.isNull())
        record.tracePath = path.asString();
    record.numCaches =
        static_cast<unsigned>(json.at("caches").asU64());
    record.totalRefs = json.at("total_refs").asU64();

    const JsonValue &events = json.at("events");
    for (std::size_t e = 0; e < numEventTypes; ++e) {
        const auto event = static_cast<EventType>(e);
        record.events.add(event,
                          events.at(eventKey(event)).asU64());
    }

    const JsonValue &ops = json.at("ops");
    for (const auto &[name, member] : opFields())
        record.ops.*member = ops.at(name).asU64();

    const JsonValue &holders = json.at("clean_write_holders");
    fatalIf(!holders.isArray(),
            "clean_write_holders is not an array");
    for (std::size_t v = 0; v < holders.size(); ++v)
        record.cleanWriteHolders.add(v, holders.at(v).asU64());

    record.wallSeconds = json.at("wall_seconds").asDouble();
    const JsonValue &phases = json.at("phases_ns");
    for (std::size_t p = 0; p < numPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        record.phases.add(phase,
                          phases.at(toString(phase)).asU64());
    }
    return record;
}

std::vector<SchemeResults>
toSchemeResults(const std::vector<CellRecord> &records)
{
    std::vector<SchemeResults> grid;
    for (const CellRecord &record : records) {
        SchemeResults *slot = nullptr;
        for (auto &scheme : grid) {
            if (scheme.scheme == record.scheme) {
                slot = &scheme;
                break;
            }
        }
        if (slot == nullptr) {
            grid.emplace_back();
            slot = &grid.back();
            slot->scheme = record.scheme;
        }
        slot->perTrace.push_back(record.toSimResult());
    }
    return grid;
}

} // namespace dirsim
