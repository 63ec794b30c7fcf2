#include "obs/metrics.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace dirsim
{

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Timer:
        return "timer";
    }
    panic("unknown MetricKind ", static_cast<unsigned>(kind));
}

void
TimerStats::observe(std::uint64_t sample)
{
    if (count == 0 || sample < min)
        min = sample;
    if (sample > max)
        max = sample;
    ++count;
    sum += sample;
}

void
TimerStats::merge(const TimerStats &other)
{
    if (other.count == 0)
        return;
    if (count == 0 || other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
}

void
MetricRegistry::checkName(const std::string &name)
{
    fatalIf(name.empty(), "metric name is empty");
    bool segment_empty = true;
    for (const char c : name) {
        if (c == '.') {
            fatalIf(segment_empty, "metric name '", name,
                    "' has an empty segment");
            segment_empty = true;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z')
            || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
            || c == '_' || c == '-';
        fatalIf(!ok, "metric name '", name,
                "' contains an invalid character '", c, "'");
        segment_empty = false;
    }
    fatalIf(segment_empty, "metric name '", name,
            "' has an empty segment");
}

std::string
MetricRegistry::escapeSegment(std::string_view text)
{
    if (text.empty())
        return "_";
    std::string segment(text);
    for (char &c : segment) {
        const bool ok = (c >= 'a' && c <= 'z')
            || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
            || c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    return segment;
}

Metric &
MetricRegistry::entry(const std::string &name, MetricKind kind)
{
    const auto it = entries.find(name);
    if (it == entries.end()) {
        checkName(name);
        Metric metric;
        metric.kind = kind;
        return entries.emplace(name, metric).first->second;
    }
    fatalIf(it->second.kind != kind, "metric '", name, "' is a ",
            toString(it->second.kind), ", not a ", toString(kind));
    return it->second;
}

const Metric *
MetricRegistry::lookup(const std::string &name, MetricKind kind) const
{
    const auto it = entries.find(name);
    if (it == entries.end())
        return nullptr;
    fatalIf(it->second.kind != kind, "metric '", name, "' is a ",
            toString(it->second.kind), ", not a ", toString(kind));
    return &it->second;
}

void
MetricRegistry::add(const std::string &name, std::uint64_t delta)
{
    entry(name, MetricKind::Counter).counter += delta;
}

void
MetricRegistry::set(const std::string &name, double value)
{
    entry(name, MetricKind::Gauge).gauge = value;
}

void
MetricRegistry::observe(const std::string &name, std::uint64_t sample)
{
    entry(name, MetricKind::Timer).timer.observe(sample);
}

std::uint64_t
MetricRegistry::counter(const std::string &name) const
{
    const Metric *metric = lookup(name, MetricKind::Counter);
    return metric ? metric->counter : 0;
}

double
MetricRegistry::gauge(const std::string &name) const
{
    const Metric *metric = lookup(name, MetricKind::Gauge);
    return metric ? metric->gauge : 0.0;
}

TimerStats
MetricRegistry::timer(const std::string &name) const
{
    const Metric *metric = lookup(name, MetricKind::Timer);
    return metric ? metric->timer : TimerStats{};
}

bool
MetricRegistry::has(const std::string &name) const
{
    return entries.find(name) != entries.end();
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    if (&other == this)
        return;
    for (const auto &[name, metric] : other.entries) {
        Metric &mine = entry(name, metric.kind);
        switch (metric.kind) {
          case MetricKind::Counter:
            mine.counter += metric.counter;
            break;
          case MetricKind::Gauge:
            mine.gauge = metric.gauge;
            break;
          case MetricKind::Timer:
            mine.timer.merge(metric.timer);
            break;
        }
    }
}

void
MetricRegistry::writeJson(JsonWriter &writer) const
{
    writer.beginObject();
    for (const auto &[name, metric] : entries) {
        writer.key(name).beginObject();
        writer.key("kind").value(toString(metric.kind));
        switch (metric.kind) {
          case MetricKind::Counter:
            writer.key("value").value(metric.counter);
            break;
          case MetricKind::Gauge:
            writer.key("value").value(metric.gauge);
            break;
          case MetricKind::Timer:
            writer.key("count").value(metric.timer.count);
            writer.key("sum").value(metric.timer.sum);
            writer.key("min").value(metric.timer.min);
            writer.key("max").value(metric.timer.max);
            break;
        }
        writer.endObject();
    }
    writer.endObject();
}

MetricRegistry
MetricRegistry::fromJson(const JsonValue &json)
{
    fatalIf(!json.isObject(), "metrics JSON is not an object");
    MetricRegistry registry;
    for (const auto &[name, value] : json.members()) {
        const std::string &kind = value.at("kind").asString();
        if (kind == "counter") {
            registry.add(name, value.at("value").asU64());
        } else if (kind == "gauge") {
            registry.set(name, value.at("value").asDouble());
        } else if (kind == "timer") {
            Metric &metric =
                registry.entry(name, MetricKind::Timer);
            metric.timer.count = value.at("count").asU64();
            metric.timer.sum = value.at("sum").asU64();
            metric.timer.min = value.at("min").asU64();
            metric.timer.max = value.at("max").asU64();
        } else {
            fatal("metric '", name, "' has unknown kind '", kind,
                  "'");
        }
    }
    return registry;
}

} // namespace dirsim
