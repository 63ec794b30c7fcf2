#include "obs/exposition.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace dirsim
{

namespace
{

bool
validNameStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || c == '_' || c == ':';
}

bool
validNameChar(char c)
{
    return validNameStart(c) || (c >= '0' && c <= '9');
}

bool
validLabelStart(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || c == '_';
}

bool
validLabelChar(char c)
{
    return validLabelStart(c) || (c >= '0' && c <= '9');
}

/** Shortest clean spelling of a sample value: integers verbatim,
 *  doubles via %g round-trip, infinities as +Inf/-Inf. */
std::string
formatValue(double value)
{
    if (std::isnan(value))
        return "NaN";
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    if (value == static_cast<double>(static_cast<std::int64_t>(value))
        && std::fabs(value) < 9.0e15) {
        return std::to_string(static_cast<std::int64_t>(value));
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
writeLabels(std::ostream &os, const std::vector<PromLabel> &labels)
{
    if (labels.empty())
        return;
    os << '{';
    bool first = true;
    for (const PromLabel &label : labels) {
        if (!first)
            os << ',';
        first = false;
        os << label.name << "=\"" << promEscapeLabelValue(label.value)
           << '"';
    }
    os << '}';
}

} // namespace

std::string
promMetricName(std::string_view name)
{
    if (name.empty())
        return "_";
    std::string sanitized;
    sanitized.reserve(name.size() + 1);
    for (const char c : name)
        sanitized.push_back(validNameChar(c) ? c : '_');
    // A leading digit survives the per-character pass (digits are
    // valid *continuation* characters) but cannot start a name.
    if (sanitized[0] >= '0' && sanitized[0] <= '9')
        sanitized.insert(sanitized.begin(), '_');
    return sanitized;
}

std::string
promEscapeLabelValue(std::string_view value)
{
    std::string escaped;
    escaped.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\':
            escaped += "\\\\";
            break;
          case '"':
            escaped += "\\\"";
            break;
          case '\n':
            escaped += "\\n";
            break;
          default:
            escaped.push_back(c);
        }
    }
    return escaped;
}

void
PromWriter::help(const std::string &name, std::string_view text)
{
    os << "# HELP " << name << ' ';
    for (const char c : text) {
        if (c == '\\')
            os << "\\\\";
        else if (c == '\n')
            os << "\\n";
        else
            os << c;
    }
    os << '\n';
}

void
PromWriter::type(const std::string &name, const char *type_name)
{
    os << "# TYPE " << name << ' ' << type_name << '\n';
}

void
PromWriter::sample(const std::string &name,
                   const std::vector<PromLabel> &labels, double value)
{
    os << name;
    writeLabels(os, labels);
    os << ' ' << formatValue(value) << '\n';
}

void
PromWriter::sample(const std::string &name,
                   const std::vector<PromLabel> &labels,
                   std::uint64_t value)
{
    os << name;
    writeLabels(os, labels);
    os << ' ' << value << '\n';
}

void
PromWriter::histogram(const std::string &name,
                      const std::vector<PromLabel> &labels,
                      const Histogram &hist,
                      const std::vector<double> &upper_bounds,
                      double sum)
{
    for (std::size_t i = 1; i < upper_bounds.size(); ++i)
        fatalIf(upper_bounds[i] <= upper_bounds[i - 1],
                "histogram '", name,
                "' upper bounds are not strictly increasing");

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
        cumulative += hist.count(i);
        std::vector<PromLabel> bucket_labels = labels;
        bucket_labels.push_back(
            {"le", formatValue(upper_bounds[i])});
        sample(name + "_bucket", bucket_labels, cumulative);
    }
    std::vector<PromLabel> inf_labels = labels;
    inf_labels.push_back({"le", "+Inf"});
    sample(name + "_bucket", inf_labels, hist.samples());
    sample(name + "_sum", labels, sum);
    sample(name + "_count", labels, hist.samples());
}

void
writePrometheus(std::ostream &os, const MetricRegistry &registry,
                const std::string &prefix)
{
    PromWriter writer(os);
    std::set<std::string> families;

    for (const auto &[name, metric] : registry) {
        const std::string family = promMetricName(
            prefix.empty() ? name : prefix + "." + name);
        if (!families.insert(family).second) {
            // Two dotted names collapsed onto one exposition family;
            // keeping both would emit duplicate samples. Keep the
            // first, note the loss.
            os << "# skipped colliding metric " << family << '\n';
            continue;
        }
        switch (metric.kind) {
          case MetricKind::Counter:
            writer.type(family, "counter");
            writer.sample(family, {}, metric.counter);
            break;
          case MetricKind::Gauge:
            writer.type(family, "gauge");
            writer.sample(family, {}, metric.gauge);
            break;
          case MetricKind::Timer:
            writer.type(family, "summary");
            writer.sample(family + "_count", {}, metric.timer.count);
            writer.sample(family + "_sum", {}, metric.timer.sum);
            families.insert(family + "_min");
            families.insert(family + "_max");
            writer.type(family + "_min", "gauge");
            writer.sample(family + "_min", {}, metric.timer.min);
            writer.type(family + "_max", "gauge");
            writer.sample(family + "_max", {}, metric.timer.max);
            break;
        }
    }
}

namespace
{

/** Parsed pieces of one sample line. */
struct ParsedSample
{
    std::string name;
    std::vector<PromLabel> labels;
    double value = 0.0;
    bool ok = false;
};

/** Parse "name{k="v",...} value [ts]"; fills @p problems on error. */
ParsedSample
parseSampleLine(const std::string &line, std::size_t line_number,
                std::vector<std::string> &problems)
{
    const auto problem = [&](const std::string &what) {
        problems.push_back("line " + std::to_string(line_number)
                           + ": " + what);
        return ParsedSample{};
    };

    std::size_t pos = 0;
    ParsedSample sample;
    if (pos >= line.size() || !validNameStart(line[pos]))
        return problem("sample does not start with a metric name");
    while (pos < line.size() && validNameChar(line[pos]))
        sample.name.push_back(line[pos++]);

    if (pos < line.size() && line[pos] == '{') {
        ++pos;
        while (pos < line.size() && line[pos] != '}') {
            PromLabel label;
            if (!validLabelStart(line[pos]))
                return problem("bad label name start in '" + line
                               + "'");
            while (pos < line.size() && validLabelChar(line[pos]))
                label.name.push_back(line[pos++]);
            if (pos >= line.size() || line[pos] != '=')
                return problem("label missing '='");
            ++pos;
            if (pos >= line.size() || line[pos] != '"')
                return problem("label value is not quoted");
            ++pos;
            while (pos < line.size() && line[pos] != '"') {
                if (line[pos] == '\\') {
                    ++pos;
                    if (pos >= line.size())
                        return problem("dangling escape in label");
                    if (line[pos] != '\\' && line[pos] != '"'
                        && line[pos] != 'n')
                        return problem("bad escape '\\"
                                       + std::string(1, line[pos])
                                       + "' in label value");
                }
                label.value.push_back(line[pos++]);
            }
            if (pos >= line.size())
                return problem("unterminated label value");
            ++pos; // closing quote
            sample.labels.push_back(std::move(label));
            if (pos < line.size() && line[pos] == ',')
                ++pos;
            else if (pos < line.size() && line[pos] != '}')
                return problem("expected ',' or '}' in labels");
        }
        if (pos >= line.size())
            return problem("unterminated label set");
        ++pos; // '}'
    }

    if (pos >= line.size() || line[pos] != ' ')
        return problem("missing space before sample value");
    ++pos;
    const std::size_t value_end = line.find(' ', pos);
    const std::string value_text = line.substr(
        pos, value_end == std::string::npos ? std::string::npos
                                            : value_end - pos);
    if (value_text == "+Inf" || value_text == "Inf") {
        sample.value = std::numeric_limits<double>::infinity();
    } else if (value_text == "-Inf") {
        sample.value = -std::numeric_limits<double>::infinity();
    } else if (value_text == "NaN") {
        sample.value = std::numeric_limits<double>::quiet_NaN();
    } else {
        std::size_t consumed = 0;
        try {
            sample.value = std::stod(value_text, &consumed);
        } catch (const std::exception &) {
            return problem("unparseable sample value '" + value_text
                           + "'");
        }
        if (consumed != value_text.size())
            return problem("trailing junk in sample value '"
                           + value_text + "'");
    }
    if (value_end != std::string::npos) {
        // Optional timestamp: must be an integer.
        const std::string ts = line.substr(value_end + 1);
        if (ts.empty()
            || ts.find_first_not_of("-0123456789")
                != std::string::npos)
            return problem("bad sample timestamp '" + ts + "'");
    }
    sample.ok = true;
    return sample;
}

/** The family a sample belongs to, stripping a known suffix. */
std::string
familyOf(const std::string &sample_name,
         const std::set<std::string> &declared)
{
    if (declared.contains(sample_name))
        return sample_name;
    for (const char *suffix :
         {"_bucket", "_count", "_sum", "_total"}) {
        const std::string_view sv(suffix);
        if (sample_name.size() > sv.size()
            && sample_name.ends_with(sv)) {
            const std::string base = sample_name.substr(
                0, sample_name.size() - sv.size());
            if (declared.contains(base))
                return base;
        }
    }
    return {};
}

} // namespace

std::vector<std::string>
lintPrometheusText(const std::string &text)
{
    std::vector<std::string> problems;
    const auto problem = [&](std::size_t line_number,
                             const std::string &what) {
        problems.push_back("line " + std::to_string(line_number)
                           + ": " + what);
    };

    std::map<std::string, std::string> family_types;
    std::set<std::string> declared;
    std::set<std::string> families_with_samples;
    std::set<std::string> seen_samples; ///< name + rendered labels

    // Histogram bookkeeping: per family, the ordered (le, cumulative
    // count) buckets and the _count sample, checked at the end.
    struct HistState
    {
        std::vector<std::pair<double, double>> buckets;
        double count = 0.0;
        bool hasCount = false;
    };
    std::map<std::string, HistState> histograms;

    std::istringstream in(text);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream comment(line);
            std::string hash, keyword, name, rest;
            comment >> hash >> keyword;
            if (keyword != "TYPE" && keyword != "HELP")
                continue; // plain comment
            comment >> name;
            if (name.empty()) {
                problem(line_number,
                        "# " + keyword + " without a metric name");
                continue;
            }
            if (keyword == "TYPE") {
                std::string type_name;
                comment >> type_name;
                static const std::set<std::string> known{
                    "counter", "gauge", "histogram", "summary",
                    "untyped"};
                if (!known.contains(type_name)) {
                    problem(line_number, "unknown TYPE '" + type_name
                                             + "' for " + name);
                    continue;
                }
                if (family_types.contains(name)) {
                    problem(line_number,
                            "duplicate TYPE for family " + name);
                    continue;
                }
                if (families_with_samples.contains(name))
                    problem(line_number, "TYPE for " + name
                                             + " after its samples");
                family_types.emplace(name, type_name);
                declared.insert(name);
            }
            continue;
        }

        const ParsedSample sample =
            parseSampleLine(line, line_number, problems);
        if (!sample.ok)
            continue;

        for (std::size_t i = 0; i < sample.labels.size(); ++i) {
            for (std::size_t j = i + 1; j < sample.labels.size();
                 ++j) {
                if (sample.labels[i].name == sample.labels[j].name)
                    problem(line_number, "duplicate label '"
                                             + sample.labels[i].name
                                             + "'");
            }
        }

        std::string identity = sample.name;
        {
            // Label order must not distinguish samples.
            std::map<std::string, std::string> sorted;
            for (const PromLabel &label : sample.labels)
                sorted.emplace(label.name, label.value);
            for (const auto &[k, v] : sorted)
                identity += "|" + k + "=" + v;
        }
        if (!seen_samples.insert(identity).second)
            problem(line_number,
                    "duplicate sample " + sample.name);

        const std::string family = familyOf(sample.name, declared);
        if (!family.empty()) {
            families_with_samples.insert(family);
            // The suffix must fit the family's declared type:
            // "foo_sum" under a gauge family "foo" is a stray.
            const std::string suffix =
                sample.name.substr(family.size());
            const std::string &type_name = family_types.at(family);
            const bool suffix_ok = suffix.empty()
                || (type_name == "counter" && suffix == "_total")
                || (type_name == "histogram"
                    && (suffix == "_bucket" || suffix == "_sum"
                        || suffix == "_count"))
                || (type_name == "summary"
                    && (suffix == "_sum" || suffix == "_count"));
            if (!suffix_ok)
                problem(line_number, "sample " + sample.name
                                         + " has suffix '" + suffix
                                         + "' invalid for "
                                         + type_name + " family "
                                         + family);
        }

        if (!family.empty()
            && family_types.at(family) == "histogram") {
            HistState &hist = histograms[family];
            if (sample.name == family + "_bucket") {
                double le = 0.0;
                bool has_le = false;
                for (const PromLabel &label : sample.labels) {
                    if (label.name != "le")
                        continue;
                    has_le = true;
                    le = label.value == "+Inf"
                        ? std::numeric_limits<double>::infinity()
                        : std::strtod(label.value.c_str(), nullptr);
                }
                if (!has_le)
                    problem(line_number, "histogram bucket of "
                                             + family
                                             + " lacks an le label");
                else
                    hist.buckets.emplace_back(le, sample.value);
            } else if (sample.name == family + "_count") {
                hist.count = sample.value;
                hist.hasCount = true;
            }
        }
    }

    for (const auto &[family, hist] : histograms) {
        if (hist.buckets.empty()) {
            problems.push_back("histogram " + family
                               + " has no buckets");
            continue;
        }
        for (std::size_t i = 1; i < hist.buckets.size(); ++i) {
            if (hist.buckets[i].first <= hist.buckets[i - 1].first)
                problems.push_back("histogram " + family
                                   + " le bounds not increasing");
            if (hist.buckets[i].second < hist.buckets[i - 1].second)
                problems.push_back(
                    "histogram " + family
                    + " buckets are not cumulative (le="
                    + formatValue(hist.buckets[i].first) + ")");
        }
        const auto &last = hist.buckets.back();
        if (!std::isinf(last.first))
            problems.push_back("histogram " + family
                               + " lacks an le=\"+Inf\" bucket");
        else if (hist.hasCount && last.second != hist.count)
            problems.push_back("histogram " + family
                               + " +Inf bucket disagrees with _count");
        if (!hist.hasCount)
            problems.push_back("histogram " + family
                               + " lacks a _count sample");
    }

    return problems;
}

} // namespace dirsim
