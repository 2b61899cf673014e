#include "obs/metrics.h"

#include <cassert>

#include "util/json.h"

namespace amnesiac {
namespace {

/** Split `name{labels}` into the family name and the raw label list
 * (empty when unlabeled) — `# TYPE` lines and histogram series suffixes
 * apply to the family, not the labeled series. */
void
splitName(const std::string &name, std::string &family, std::string &labels)
{
    auto brace = name.find('{');
    if (brace == std::string::npos) {
        family = name;
        labels.clear();
        return;
    }
    family = name.substr(0, brace);
    auto close = name.rfind('}');
    labels = name.substr(brace + 1,
                         close == std::string::npos ? std::string::npos
                                                    : close - brace - 1);
}

void
appendSeries(std::string &out, const std::string &family,
             const std::string &suffix, const std::string &labels,
             const std::string &extra_label, double value)
{
    out += family;
    out += suffix;
    if (!labels.empty() || !extra_label.empty()) {
        out += '{';
        out += labels;
        if (!labels.empty() && !extra_label.empty())
            out += ',';
        out += extra_label;
        out += '}';
    }
    out += ' ';
    json::appendDouble(out, value);
    out += '\n';
}

}  // namespace

void
MetricsRegistry::counterAdd(const std::string &name, double delta)
{
    assert(delta >= 0.0 && "counters are monotonic");
    std::lock_guard<std::mutex> lock(_mutex);
    _counters[name] += delta;
}

void
MetricsRegistry::gaugeSet(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _gauges[name] = value;
}

void
MetricsRegistry::histogramObserve(const std::string &name, double sample,
                                  double bucket_width,
                                  std::size_t bucket_count, double weight)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _histograms.find(name);
    if (it == _histograms.end())
        it = _histograms.emplace(name, Histogram(bucket_width, bucket_count))
                 .first;
    it->second.addWeighted(sample, weight);
}

double
MetricsRegistry::value(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (auto it = _counters.find(name); it != _counters.end())
        return it->second;
    if (auto it = _gauges.find(name); it != _gauges.end())
        return it->second;
    return 0.0;
}

std::string
MetricsRegistry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::string out;
    std::string family, labels, lastFamily;

    for (const auto &[name, value] : _counters) {
        splitName(name, family, labels);
        if (family != lastFamily) {
            out += "# TYPE " + family + " counter\n";
            lastFamily = family;
        }
        appendSeries(out, family, "", labels, "", value);
    }
    lastFamily.clear();
    for (const auto &[name, value] : _gauges) {
        splitName(name, family, labels);
        if (family != lastFamily) {
            out += "# TYPE " + family + " gauge\n";
            lastFamily = family;
        }
        appendSeries(out, family, "", labels, "", value);
    }
    lastFamily.clear();
    for (const auto &[name, hist] : _histograms) {
        splitName(name, family, labels);
        if (family != lastFamily) {
            out += "# TYPE " + family + " histogram\n";
            lastFamily = family;
        }
        double cumulative = 0.0;
        for (std::size_t i = 0; i < hist.size(); ++i) {
            cumulative += hist.count(i);
            std::string le = "le=\"";
            json::appendDouble(le, hist.lowerEdge(i + 1));
            le += '"';
            appendSeries(out, family, "_bucket", labels, le, cumulative);
        }
        appendSeries(out, family, "_bucket", labels, "le=\"+Inf\"",
                     hist.total());
        appendSeries(out, family, "_sum", labels, "",
                     hist.mean() * hist.total());
        appendSeries(out, family, "_count", labels, "", hist.total());
    }
    return out;
}

}  // namespace amnesiac
