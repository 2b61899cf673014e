/**
 * @file
 * Host-side hierarchical span profiler (the observability layer's
 * wall-clock pillar). Where obs/trace.h answers "what did the
 * *simulated* machine do, in cycles", this answers "where did the
 * *host's* seconds go": RAII ScopedSpans write fixed-size records into
 * lock-free per-thread buffers with steady-clock timestamps, explicit
 * parent/child nesting, and up to four integer counter annotations
 * (instructions replayed, candidates pruned, cache hits, bytes
 * written). The pipeline instruments itself at pass/phase/task
 * granularity — compiler passes, artifact cache probes, thread-pool
 * queue waits — never per simulated instruction, so the enabled
 * overhead is bounded by the number of pipeline steps, not the dynamic
 * instruction count.
 *
 * Cost contract: profiling is compiled in but disabled by default, and
 * the disabled path is one relaxed atomic load + branch per span site
 * with zero allocations (asserted by tests/span_test.cc and gated
 * against perf_interp in CI). Enabling is opt-in per process
 * (--prof on every harness).
 *
 * Concurrency contract: recording is lock-free (each thread appends to
 * its own buffer; the only lock is taken once per thread lifetime to
 * register the buffer). enable() and collect() require quiescence — no
 * thread may be inside an open span — which every caller gets for free
 * by enabling before dispatching work and collecting after
 * waitIdle()/join (both establish the needed happens-before edges).
 * Buffers outlive their threads, so spans recorded by a since-joined
 * pool worker are still collectable.
 *
 * Naming convention (load-bearing for the flame table): a span name is
 * `base detail` where `base` contains no spaces (use ':' to subdivide,
 * e.g. "pass:profile", "cache:probe") and the optional ` detail` part
 * carries run-specific text ("pass:profile sx"). Aggregation strips
 * everything from the first space, so all workloads' instances of one
 * pipeline step land in one flame-table row while the Chrome trace
 * keeps the full per-instance names.
 *
 * This header sits *below* util (ThreadPool records queue-wait spans),
 * so it depends on nothing but the standard library; the obs/report
 * layers render its records into Chrome traces, flame tables, and
 * MetricsRegistry histograms.
 */

#ifndef AMNESIAC_OBS_SPAN_H
#define AMNESIAC_OBS_SPAN_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace amnesiac {

/** Parent index of a root (top-level) span. */
inline constexpr std::uint32_t kNoSpanParent = 0xffffffffu;

/** Counter annotations per span record (fixed: records never allocate). */
inline constexpr std::size_t kMaxSpanCounters = 5;

/**
 * One closed span, 208 bytes, fully self-contained (no pointers into
 * caller memory: names and counter keys are copied at record time, so
 * a record outlives every temporary it was built from).
 */
struct SpanRecord
{
    std::uint64_t startNs = 0;  ///< steady-clock ns since enable()
    std::uint64_t endNs = 0;
    /** The recording thread's CPU time (CLOCK_THREAD_CPUTIME_ID) at
     * start and stop; both 0 on an interval recorded after the fact
     * (recordInterval), which spends no CPU of its own. */
    std::uint64_t cpuStartNs = 0;
    std::uint64_t cpuEndNs = 0;
    /** Index of the enclosing span in the *same thread's* record list
     * (spans never span threads; cross-thread causality is visible
     * through the pool:queue-wait / pool:task records instead). */
    std::uint32_t parent = kNoSpanParent;
    std::uint16_t depth = 0;       ///< root = 0
    std::uint8_t counterCount = 0;
    char name[48] = {};            ///< NUL-terminated, truncated copy

    struct Counter
    {
        char key[16] = {};  ///< NUL-terminated, truncated copy
        std::uint64_t value = 0;
    };
    Counter counters[kMaxSpanCounters];

    double seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
    double cpuSeconds() const
    {
        return static_cast<double>(cpuEndNs - cpuStartNs) * 1e-9;
    }
};

/** Per-pass wall-clock entry (RunManifest's per-pass timing table and
 * CompileResult::passTimes both use it). Defined here — the bottom of
 * the dependency stack — so core can fill tables that obs renders. */
struct PassTime
{
    std::string name;
    double sec = 0.0;
};

/** Work counters of one dependence-profiling pass, the ones its
 * `pass:profile` span carries (CompileResult and RunManifest both hold
 * them; defined here for the same reason as PassTime). */
struct ProfilerCounters
{
    std::uint64_t productions = 0;
    std::uint64_t arenaNodes = 0;
    std::uint64_t walkNodes = 0;
    std::uint64_t operandProbes = 0;
};

/**
 * Process-wide registry of per-thread span buffers. One instance per
 * process; all recording goes through ScopedSpan / recordInterval.
 */
class SpanProfiler
{
  public:
    static SpanProfiler &instance();

    /** The disabled-path check every span site performs. */
    static bool enabled()
    {
        return s_enabled.load(std::memory_order_acquire);
    }

    /** Clear previously collected spans, restamp the epoch, and start
     * recording. Requires quiescence (no open spans on any thread). */
    void enable();

    /** Stop recording; collected spans remain readable. */
    void disable();

    /** Name this thread's track ("main", "pool-worker", ...); sticky
     * for the thread's lifetime. */
    void setThreadName(std::string_view name);

    /** One thread's spans, in record (= start) order. */
    struct ThreadSpans
    {
        std::uint32_t tid = 0;  ///< registration order; 0 is usually main
        std::string name;
        std::vector<SpanRecord> spans;
    };

    /** Snapshot every thread's records, sorted by tid. Requires
     * quiescence (callers collect after waitIdle()/join). */
    std::vector<ThreadSpans> collect() const;

    /** Nanoseconds since the enable() epoch (clamped at 0). */
    std::uint64_t nowNs() const
    {
        return toNs(std::chrono::steady_clock::now());
    }

    /** Convert an externally captured steady-clock time point. */
    std::uint64_t toNs(std::chrono::steady_clock::time_point tp) const;

    /**
     * Record an already-measured interval as a closed span on the
     * calling thread (nested under its currently open span, if any).
     * Used for spans whose endpoints live on different threads, e.g. a
     * pool task's enqueue → start queue wait. No-op when disabled.
     */
    void recordInterval(const char *name, std::uint64_t start_ns,
                        std::uint64_t end_ns, const char *key = nullptr,
                        std::uint64_t value = 0);

  private:
    friend class ScopedSpan;

    /** One thread's append-only buffer. Heap-allocated and registered
     * with the profiler so it survives thread exit; only its owner
     * thread ever appends. */
    struct ThreadBuffer
    {
        std::uint32_t tid = 0;
        std::string name;
        std::vector<SpanRecord> records;
        std::vector<std::uint32_t> openStack;  ///< indices of open spans
    };

    SpanProfiler() = default;
    ThreadBuffer &localBuffer();

    /** The calling thread's buffer; a shared_ptr copy lives in
     * _threads so records survive thread exit. */
    static thread_local std::shared_ptr<ThreadBuffer> t_buffer;

    inline static std::atomic<bool> s_enabled{false};
    /** Epoch as raw steady-clock ns (atomic: workers read it without
     * holding the registry mutex). */
    std::atomic<std::int64_t> _epochNs{0};
    mutable std::mutex _mutex;  ///< guards _threads registration only
    std::vector<std::shared_ptr<ThreadBuffer>> _threads;
};

/**
 * RAII span. When profiling is disabled, construction is one relaxed
 * load + branch and allocates nothing — names and details are only
 * copied (into the fixed-size record) on the enabled path. For
 * dynamic context, pass string_views of *existing* strings as
 * detail/detail2 rather than concatenating at the call site (the
 * concatenation would allocate even when disabled):
 *
 *   ScopedSpan span("pass:profile", workload.name);       // "pass:profile sx"
 *   ScopedSpan run("simulate", name, policyName(policy)); // "simulate sx/FLC"
 *   span.counter("instrs", n);
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (SpanProfiler::enabled())
            open(name, {}, {});
    }

    /** Name rendered as "name detail" / "name detail/detail2". */
    ScopedSpan(const char *name, std::string_view detail,
               std::string_view detail2 = {})
    {
        if (SpanProfiler::enabled())
            open(name, detail, detail2);
    }

    ~ScopedSpan()
    {
        if (_buffer)
            close();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a counter annotation (first kMaxSpanCounters stick).
     * No-op when the span is inactive (profiling disabled). */
    void counter(const char *key, std::uint64_t value);

    /** Close the span now instead of at scope exit (idempotent). */
    void stop()
    {
        if (_buffer)
            close();
    }

    /** Whether this span is actually recording. */
    bool active() const { return _buffer != nullptr; }

  private:
    void open(const char *name, std::string_view detail,
              std::string_view detail2);
    void close();

    SpanProfiler::ThreadBuffer *_buffer = nullptr;
    std::uint32_t _index = 0;
};

/** Flame-table row: one aggregation bucket (span base name — the part
 * before the first space — summed over every thread and instance). */
struct SpanAggregate
{
    std::string name;
    std::uint64_t count = 0;
    double totalSec = 0.0;  ///< inclusive (children counted)
    double selfSec = 0.0;   ///< exclusive (direct children subtracted)
    /** selfSec in the recording threads' CPU time: a thread that waits
     * for a core or blocks adds wall time here but no CPU time. */
    double selfCpuSec = 0.0;
};

/** Aggregate collected spans by base name, sorted by selfSec
 * descending (the "where do host seconds actually go" order). */
std::vector<SpanAggregate> aggregateSpans(
    const std::vector<SpanProfiler::ThreadSpans> &threads);

/** The host seconds the flame table's footer sets the work rows
 * against. */
struct HostSeconds
{
    double wallSec = 0.0;  ///< since SpanProfiler::enable()
    double cpuSec = 0.0;   ///< process user+sys, all threads

    /** Now: wall time since enable(), CPU from getrusage(RUSAGE_SELF). */
    static HostSeconds sample();
};

/** Render the aggregated flame table as aligned text (--prof-report).
 * self% is each work row's share of all work self time (wall time);
 * the pool's `pool:*-wait` rows follow the work rows, marked "wait"
 * instead. The last line reads
 * `wall_s <x> cpu_s <y> work_self_s <z> work/cpu <p>%`: the host's wall
 * and CPU seconds and the work rows' summed self *CPU* time, so a
 * thread that waits for a core does not inflate the work sum. */
std::string renderSpanFlameTable(
    const std::vector<SpanProfiler::ThreadSpans> &threads,
    const HostSeconds &host = HostSeconds::sample());

/** Open the next event of a Chrome trace's `traceEvents` array on a
 * line of its own: every Chrome trace here puts one event per line. */
json::Writer &beginChromeEvent(json::Writer &w, std::string &out);

/**
 * Append Chrome trace-event objects for the host spans, one per line,
 * to the open `traceEvents` array of `w`, which writes to `out` (one
 * complete 'X' event per span on `pid`, one real tid per host thread,
 * thread_name metadata "host:<name>"). Timestamps are wall-clock
 * microseconds since enable(). Exposed so obs/trace.cc can merge host
 * tracks into a simulated-cycles trace; pid separation keeps the two
 * clock domains from sharing a timeline.
 */
void appendHostSpanChromeEvents(
    json::Writer &w, std::string &out,
    const std::vector<SpanProfiler::ThreadSpans> &threads, int pid);

/** A complete standalone Chrome trace of the host spans (--prof-out). */
std::string renderHostSpanChromeTrace(
    const std::vector<SpanProfiler::ThreadSpans> &threads);

}  // namespace amnesiac

#endif  // AMNESIAC_OBS_SPAN_H
