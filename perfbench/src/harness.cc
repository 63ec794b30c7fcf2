#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/json.hh"
#include "obs/chrome_trace.hh"
#include "obs/phase.hh"
#include "obs/record.hh"

namespace perfbench
{

std::uint64_t
nowNs()
{
    return dirsim::PhaseTimer::nowNs();
}

double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }
    return cpus;
}

unsigned
availableCpus()
{
    const std::size_t n = allowedCpus().size();
    return n > 0 ? static_cast<unsigned>(n)
                 : std::max(1u, std::thread::hardware_concurrency());
}

namespace
{

/** Time a fixed integer loop over a 256 KiB buffer on this CPU. */
std::uint64_t
probeLoopNs()
{
    static std::vector<std::uint64_t> buffer(1u << 15);
    static volatile std::uint64_t sink = 0;
    const std::uint64_t start = nowNs();
    std::uint64_t x = 1;
    std::uint64_t index = 0;
    for (unsigned i = 0; i < (1u << 19); ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        index = (index + (x >> 40)) & (buffer.size() - 1);
        buffer[index] += x;
    }
    sink = sink + buffer[index];
    return nowNs() - start;
}

bool
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

} // namespace

int
pinToQuietestCpu(const std::vector<int> &cpus)
{
    int best = -1;
    std::uint64_t best_ns = 0;
    for (const int cpu : cpus) {
        if (!pinTo(cpu))
            continue;
        const std::uint64_t took = probeLoopNs();
        if (best < 0 || took < best_ns) {
            best = cpu;
            best_ns = took;
        }
    }
    if (best >= 0)
        pinTo(best);
    return best;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::int64_t
Tracer::record(std::string name, std::int64_t parent,
               std::uint64_t start_ns, std::uint64_t end_ns,
               std::uint64_t count)
{
    if (!on)
        return -1;
    std::lock_guard<std::mutex> lock(mutex);
    log.push_back({std::move(name), parent, start_ns, end_ns, count});
    return static_cast<std::int64_t>(log.size()) - 1;
}

Tracer::Scope::Scope(Tracer &tracer_arg, std::string name_arg)
    : tracer(tracer_arg), name(std::move(name_arg)), parent(-1),
      index(-1), startNs(0)
{
    if (!tracer.on)
        return;
    std::lock_guard<std::mutex> lock(tracer.mutex);
    parent = tracer.open.empty() ? -1 : tracer.open.back();
    // Reserve the slot now so children recorded meanwhile can name it.
    tracer.log.push_back({name, parent, 0, 0, 0});
    index = static_cast<std::int64_t>(tracer.log.size()) - 1;
    tracer.open.push_back(index);
    startNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (!tracer.on)
        return;
    const std::uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(tracer.mutex);
    Span &span = tracer.log[static_cast<std::size_t>(index)];
    span.startNs = startNs;
    span.endNs = end;
    span.count = count;
    tracer.open.pop_back();
}

std::uint64_t
Tracer::totalNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (const Span &span : log)
        if (span.name == name)
            total += span.endNs - span.startNs;
    return total;
}

std::uint64_t
Tracer::totalCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (const Span &span : log)
        if (span.name == name)
            total += span.count;
    return total;
}

double
Tracer::nsPerUnit(const std::string &name) const
{
    const std::uint64_t units = totalCount(name);
    return units == 0 ? 0.0
                      : static_cast<double>(totalNs(name))
            / static_cast<double>(units);
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::vector<dirsim::TraceSpan> spans;
    std::uint64_t origin = ~std::uint64_t{0};
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t i = 0; i < log.size(); ++i) {
            const Span &span = log[i];
            origin = std::min(origin, span.startNs);
            spans.push_back({span.name, "perfbench", 0, span.startNs,
                             span.endNs - span.startNs,
                             {{"id", std::to_string(i)},
                              {"parent", std::to_string(span.parent)},
                              {"count", std::to_string(span.count)}}});
        }
    }
    std::ofstream out(path);
    dirsim::writeChromeSpans(out, spans, spans.empty() ? 0 : origin);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    values[name] = {value, unit};
}

std::string
Metrics::resultJson(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const
{
    std::ostringstream out;
    dirsim::JsonWriter json(out);
    json.beginObject()
        .key("correct").value(correct)
        .key("attempted").value(attempted)
        .key("failed").value(failed)
        .key("metrics").beginObject();
    for (const auto &[name, entry] : values) {
        json.key(name).beginObject()
            .key("value").value(entry.first)
            .key("unit").value(entry.second)
            .endObject();
    }
    json.endObject().endObject();
    return out.str();
}

namespace
{

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

void
mix(std::uint64_t &hash, std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= fnvPrime;
    }
}

std::string
mismatch(std::uint64_t digest, const char *against,
         std::uint64_t expected)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "digest %016" PRIx64 " != %s %016" PRIx64,
                  digest, against, expected);
    return buf;
}

} // namespace

std::uint64_t
cellDigest(const dirsim::EventCounts &events, const dirsim::OpCounts &ops,
           const dirsim::Histogram &clean_write_holders)
{
    std::uint64_t hash = fnvOffset;
    for (std::size_t e = 0; e < dirsim::numEventTypes; ++e)
        mix(hash, events.count(static_cast<dirsim::EventType>(e)));
    for (const auto &field : dirsim::opFields())
        mix(hash, ops.*(field.second));
    // Trailing empty buckets carry no samples (Histogram equality
    // ignores them too).
    const std::vector<std::uint64_t> &buckets =
        clean_write_holders.buckets();
    std::size_t used = buckets.size();
    while (used > 0 && buckets[used - 1] == 0)
        --used;
    mix(hash, used);
    for (std::size_t b = 0; b < used; ++b)
        mix(hash, buckets[b]);
    return hash;
}

Checker::Checker(const GoldenCells *golden)
{
    if (golden && !golden->empty()) {
        reference = *golden;
        haveReference = true;
    }
}

void
Checker::fail(const std::string &pass, const std::string &cell,
              const std::string &why)
{
    ++failedCells;
    std::cerr << "perfbench: FAILED cell " << cell << " in pass " << pass
              << ": " << why << "\n";
}

void
Checker::check(const std::string &pass,
               const std::vector<CellDigest> &cells,
               std::size_t expected)
{
    attemptedCells += std::max(expected, cells.size());
    if (cells.size() < expected) {
        for (std::size_t i = cells.size(); i < expected; ++i)
            fail(pass, std::to_string(i), "missing from the pass");
    }
    if (!haveReference) {
        // A key may repeat within a pass (a sweep's cold and resume
        // halves); its copies must agree.
        for (const CellDigest &cell : cells) {
            const auto [it, inserted] =
                reference.emplace(cell.key, cell.digest);
            if (!inserted && it->second != cell.digest)
                fail(pass, cell.key,
                     mismatch(cell.digest, "earlier copy", it->second));
        }
        haveReference = true;
        return;
    }
    for (const CellDigest &cell : cells) {
        const auto it = reference.find(cell.key);
        if (it == reference.end())
            fail(pass, cell.key, "no reference digest");
        else if (it->second != cell.digest)
            fail(pass, cell.key,
                 mismatch(cell.digest, "reference", it->second));
    }
}

void
Checker::failPass(const std::string &pass, std::size_t expected,
                  const std::string &what)
{
    attemptedCells += expected;
    for (std::size_t i = 0; i < expected; ++i)
        fail(pass, std::to_string(i), what);
}

GoldenCells
loadGolden(const std::string &path, const std::string &workload,
           std::uint64_t seed, std::uint64_t refs)
{
    GoldenCells cells;
    std::ifstream in(path);
    if (!in)
        return cells;
    std::stringstream text;
    text << in.rdbuf();
    const dirsim::JsonValue doc = dirsim::JsonValue::parse(text.str());
    const dirsim::JsonValue *entry = doc.find(workload);
    if (!entry || entry->at("seed").asU64() != seed
        || entry->at("refs").asU64() != refs)
        return cells;
    for (const auto &member : entry->at("cells").members())
        cells[member.first] =
            std::stoull(member.second.asString(), nullptr, 16);
    return cells;
}

bool
optimizedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::string
hostJson(const std::string &commit, bool traced)
{
    std::ostringstream out;
    dirsim::JsonWriter json(out);
    json.beginObject()
        .key("nproc").value(availableCpus())
        .key("cpu_model").value(cpuModel())
        .key("compiler").value(PERFBENCH_COMPILER)
        .key("compiler_version").value(__VERSION__)
        .key("build_type").value(PERFBENCH_BUILD_TYPE)
        .key("build_flags").value(PERFBENCH_CXX_FLAGS)
#ifdef DIRSIM_NO_TRACER
        .key("dirsim_tracer").value("off")
#else
        .key("dirsim_tracer").value("on")
#endif
        .key("benchmark_trace").value(traced ? "on" : "off")
        .key("commit").value(commit)
        .key("usable").value(optimizedBuild())
        .endObject();
    return out.str();
}

} // namespace perfbench
