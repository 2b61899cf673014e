/**
 * @file
 * Metrics export (the observability layer's third pillar): a
 * thread-safe registry of named counters, gauges, and bucketed
 * histograms that renders as Prometheus text exposition format. The
 * experiment pipeline's parallel workers record into one shared
 * registry; exports iterate in name order, so the rendered text for a
 * given set of recordings is deterministic regardless of the
 * interleaving that produced them.
 *
 * Metric names follow Prometheus conventions
 * ([a-zA-Z_:][a-zA-Z0-9_:]*); labels are baked into the name at
 * recording time (e.g. `amnesiac_energy_nj{workload="sr",policy="FLC"}`)
 * rather than modeled separately — the cardinality here is tiny.
 */

#ifndef AMNESIAC_OBS_METRICS_H
#define AMNESIAC_OBS_METRICS_H

#include <map>
#include <mutex>
#include <string>

#include "util/histogram.h"

namespace amnesiac {

/** Thread-safe counter/gauge/histogram registry with deterministic
 * (name-ordered) Prometheus export. */
class MetricsRegistry
{
  public:
    /** Add `delta` (>= 0) to a monotonic counter, creating it at 0. */
    void counterAdd(const std::string &name, double delta = 1.0);

    /** Set a gauge to `value`, creating it if needed. */
    void gaugeSet(const std::string &name, double value);

    /** Record one observation into a fixed-width-bucket histogram.
     * The first observation under a name fixes its bucketing; later
     * calls with different bucketing reuse the existing one. `weight`
     * lets pre-aggregated bucket counts (e.g. the thread pool's
     * queue-wait distribution) be replayed in one call per bucket. */
    void histogramObserve(const std::string &name, double sample,
                          double bucket_width = 1.0,
                          std::size_t bucket_count = 32,
                          double weight = 1.0);

    /** Current value of a counter/gauge (0 if absent). */
    double value(const std::string &name) const;

    /**
     * Prometheus text exposition format, version 0.0.4: `# TYPE` lines,
     * `_bucket{le="..."}`/`_sum`/`_count` series for histograms,
     * families in name order. Terminated by a trailing newline as the
     * format requires.
     */
    std::string renderPrometheus() const;

  private:
    mutable std::mutex _mutex;
    // std::map: name-ordered iteration makes exports deterministic.
    std::map<std::string, double> _counters;
    std::map<std::string, double> _gauges;
    std::map<std::string, Histogram> _histograms;
};

}  // namespace amnesiac

#endif  // AMNESIAC_OBS_METRICS_H
