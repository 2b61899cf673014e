/**
 * @file
 * Structured event tracing for amnesic execution (the observability
 * layer's first pillar). An AmnesicTracer hangs off the machine's
 * AmnesicTraceHooks (and optionally the machine's ExecutionObserver for
 * memory events) and buffers compact binary records; the buffer exports
 * as JSONL (one event object per line) or as Chrome trace-event JSON
 * that chrome://tracing and Perfetto load directly, one track per
 * (workload, policy) run plus a pipeline-phase track.
 *
 * Determinism contract: record timestamps are *simulated cycles*, so
 * the event stream of a given (program, policy, config) is
 * byte-identical across runs and independent of the experiment
 * pipeline's `jobs` — traces compose with the differential fuzzer and
 * can serve as oracle inputs. Only the pipeline-phase track (wall
 * clock, from the run manifest) is non-deterministic, and it is kept
 * out of the per-run streams.
 */

#ifndef AMNESIAC_OBS_TRACE_H
#define AMNESIAC_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"
#include "obs/span.h"

namespace amnesiac {

/** Event kinds recorded by the tracer (stable order: the JSONL `ev`
 * names and trace-viewer event names key off it). */
enum class TraceEventKind : std::uint8_t {
    RcmpDecision,      ///< an RCMP resolved (fired or fell back)
    SliceEntry,        ///< slice traversal began
    SliceExit,         ///< slice traversal finished or aborted
    RecWrite,          ///< a REC checkpointed into Hist
    HistOverflow,      ///< a REC overflowed Hist (§3.5 poison)
    HistMissFallback,  ///< traversal aborted: Condition-II unmet
    SFileAbort,        ///< traversal aborted: SFile overflow
    ShadowMismatch,    ///< shadow check flagged a recomputed value
    Load,              ///< a serviced load (memory tracing only)
    Store,             ///< a retired store (memory tracing only)
};

std::string_view traceEventName(TraceEventKind kind);

/** RcmpDecision flag bits packed into TraceRecord::flags. */
enum : std::uint8_t {
    kTraceFired = 1u << 0,
    kTracePoisoned = 1u << 1,
    kTraceHistMissAbort = 1u << 2,
    kTraceSFileAbort = 1u << 3,
    kTracePredictorUsed = 1u << 4,
    kTracePredictedMiss = 1u << 5,
    kTraceCompleted = 1u << 6,  ///< SliceExit: traversal completed
};

/**
 * One buffered event, 40 bytes. Payload use by kind:
 *  - RcmpDecision:     a = addr, b = bit_cast(realized delta nJ),
 *                      aux = slice instrs, level = residence
 *  - SliceEntry/Exit:  aux = instrs executed (exit only)
 *  - RecWrite/HistOverflow: aux = leaf address
 *  - HistMissFallback/SFileAbort: aux = instrs executed before abort
 *  - ShadowMismatch:   a = recomputed value, b = expected value,
 *                      aux = data-image word index (addr / 8)
 *  - Load/Store:       a = addr, b = value, level = serviced level
 */
struct TraceRecord
{
    std::uint64_t cycles = 0;
    std::uint32_t pc = 0;
    std::uint32_t sliceId = 0;
    std::uint32_t aux = 0;
    TraceEventKind kind = TraceEventKind::RcmpDecision;
    std::uint8_t flags = 0;
    std::uint8_t level = 0;
    std::uint8_t pad = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/**
 * Append-only record buffer with a deterministic capacity guard: past
 * `maxRecords` appends are counted but dropped (count-based, so the
 * truncation point is identical across runs), and every export states
 * the dropped count — no silent caps.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t max_records = kDefaultMaxRecords)
        : _maxRecords(max_records)
    {
    }

    void append(const TraceRecord &record)
    {
        if (_records.size() >= _maxRecords) {
            ++_dropped;
            return;
        }
        _records.push_back(record);
    }

    const std::vector<TraceRecord> &records() const { return _records; }
    std::size_t size() const { return _records.size(); }
    std::uint64_t dropped() const { return _dropped; }
    bool empty() const { return _records.empty(); }
    void clear() { _records.clear(); _dropped = 0; }

    static constexpr std::size_t kDefaultMaxRecords = 4u << 20;

  private:
    std::vector<TraceRecord> _records;
    std::size_t _maxRecords;
    std::uint64_t _dropped = 0;
};

/**
 * The tracer: implements the machine's AmnesicTraceHooks and the
 * machine's ExecutionObserver. Attach with attach() — the observer half
 * is only installed when memory tracing is requested, so the
 * per-instruction interpreter path stays free of extra virtual calls in the
 * default configuration.
 */
class AmnesicTracer : public AmnesicTraceHooks, public ExecutionObserver
{
  public:
    struct Options
    {
        /** Record Load/Store events via ExecutionObserver. Off by
         * default: it adds one virtual call per memory instruction and
         * inflates traces by orders of magnitude. */
        bool memory = false;
        std::size_t maxRecords = TraceBuffer::kDefaultMaxRecords;
    };

    AmnesicTracer() : AmnesicTracer(Options{}) {}
    explicit AmnesicTracer(const Options &options)
        : _buffer(options.maxRecords), _options(options)
    {
    }

    /** Install this tracer on a machine (trace hooks, and the observer
     * when memory tracing is on). */
    void attach(AmnesicMachine &machine);

    const TraceBuffer &buffer() const { return _buffer; }
    TraceBuffer &buffer() { return _buffer; }

    // --- AmnesicTraceHooks ---
    void onRcmp(const RcmpEvent &event) override;
    void onSliceEntry(std::uint64_t cycles, std::uint32_t rcmp_pc,
                      std::uint32_t slice_id) override;
    void onSliceExit(std::uint64_t cycles, std::uint32_t rcmp_pc,
                     std::uint32_t slice_id, std::uint32_t instrs,
                     bool completed) override;
    void onRec(std::uint64_t cycles, std::uint32_t pc,
               std::uint32_t slice_id, std::uint32_t leaf_addr,
               bool overflowed) override;
    void onShadowMismatch(std::uint64_t cycles, std::uint32_t pc,
                          std::uint32_t slice_id, std::uint64_t addr,
                          std::uint64_t recomputed,
                          std::uint64_t expected) override;

    // --- ExecutionObserver (memory tracing) ---
    void onLoad(const Machine &e, std::uint32_t pc,
                std::uint64_t addr, std::uint64_t value,
                MemLevel serviced) override;
    void onStore(const Machine &e, std::uint32_t pc,
                 std::uint64_t addr, std::uint64_t value,
                 MemLevel serviced) override;

  private:
    TraceBuffer _buffer;
    Options _options;
};

/**
 * Fans the machine's single trace-hook slot out to two sinks (the
 * pipeline attaches a SiteCollector always and an AmnesicTracer when
 * event tracing is on). Null sinks are skipped.
 */
class TeeTraceHooks : public AmnesicTraceHooks
{
  public:
    TeeTraceHooks(AmnesicTraceHooks *first, AmnesicTraceHooks *second)
        : _first(first), _second(second)
    {
    }

    void onRcmp(const RcmpEvent &event) override
    {
        if (_first)
            _first->onRcmp(event);
        if (_second)
            _second->onRcmp(event);
    }

    void onSliceEntry(std::uint64_t cycles, std::uint32_t rcmp_pc,
                      std::uint32_t slice_id) override
    {
        if (_first)
            _first->onSliceEntry(cycles, rcmp_pc, slice_id);
        if (_second)
            _second->onSliceEntry(cycles, rcmp_pc, slice_id);
    }

    void onSliceExit(std::uint64_t cycles, std::uint32_t rcmp_pc,
                     std::uint32_t slice_id, std::uint32_t instrs,
                     bool completed) override
    {
        if (_first)
            _first->onSliceExit(cycles, rcmp_pc, slice_id, instrs,
                                completed);
        if (_second)
            _second->onSliceExit(cycles, rcmp_pc, slice_id, instrs,
                                 completed);
    }

    void onRec(std::uint64_t cycles, std::uint32_t pc,
               std::uint32_t slice_id, std::uint32_t leaf_addr,
               bool overflowed) override
    {
        if (_first)
            _first->onRec(cycles, pc, slice_id, leaf_addr, overflowed);
        if (_second)
            _second->onRec(cycles, pc, slice_id, leaf_addr, overflowed);
    }

    void onShadowMismatch(std::uint64_t cycles, std::uint32_t pc,
                          std::uint32_t slice_id, std::uint64_t addr,
                          std::uint64_t recomputed,
                          std::uint64_t expected) override
    {
        if (_first)
            _first->onShadowMismatch(cycles, pc, slice_id, addr,
                                     recomputed, expected);
        if (_second)
            _second->onShadowMismatch(cycles, pc, slice_id, addr,
                                      recomputed, expected);
    }

  private:
    AmnesicTraceHooks *_first;
    AmnesicTraceHooks *_second;
};

/** JSONL export: one compact JSON object per record, one per line,
 * terminated by a `{"ev":"meta",...}` line carrying kept/dropped
 * counts. Deterministic: same buffer, same bytes. */
std::string renderTraceJsonl(const TraceBuffer &buffer);

/** One named track of a Chrome trace (a thread in the viewer). */
struct TraceTrack
{
    std::string name;  ///< e.g. "sr/FLC"
    const TraceBuffer *buffer = nullptr;
};

/** One pipeline-phase span on the wall-clock track (from the run
 * manifest): start/duration in microseconds since the run began. */
struct PhaseSpan
{
    std::string name;  ///< e.g. "compile sr"
    double startUs = 0.0;
    double durUs = 0.0;
};

/**
 * Chrome trace-event JSON (the `{"traceEvents":[...]}` object form):
 * each track renders as its own tid with slice entry/exit as B/E
 * duration events and everything else as instant events, timestamped in
 * simulated cycles; phase spans render as complete (X) events on tid 0.
 * When `host` is non-empty (a SpanProfiler::collect() snapshot), the
 * host-profiler spans merge in as pid-2 tracks — one per real host
 * thread, timestamped in wall-clock microseconds; the pid split keeps
 * the cycle and wall-clock timelines from sharing an axis. Loadable by
 * chrome://tracing and Perfetto's legacy importer.
 */
std::string renderChromeTrace(
    const std::vector<TraceTrack> &tracks,
    const std::vector<PhaseSpan> &phases = {},
    const std::vector<SpanProfiler::ThreadSpans> &host = {});

}  // namespace amnesiac

#endif  // AMNESIAC_OBS_TRACE_H
