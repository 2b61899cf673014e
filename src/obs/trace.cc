#include "obs/trace.h"

#include <bit>

#include "util/json.h"

namespace amnesiac {

std::string_view
traceEventName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::RcmpDecision:     return "rcmp";
      case TraceEventKind::SliceEntry:       return "slice-entry";
      case TraceEventKind::SliceExit:        return "slice-exit";
      case TraceEventKind::RecWrite:         return "rec";
      case TraceEventKind::HistOverflow:     return "hist-overflow";
      case TraceEventKind::HistMissFallback: return "hist-miss-fallback";
      case TraceEventKind::SFileAbort:       return "sfile-abort";
      case TraceEventKind::ShadowMismatch:   return "shadow-mismatch";
      case TraceEventKind::Load:             return "load";
      case TraceEventKind::Store:            return "store";
    }
    return "?";
}

void
AmnesicTracer::attach(AmnesicMachine &machine)
{
    machine.setTraceHooks(this);
    if (_options.memory)
        machine.setObserver(this);
}

void
AmnesicTracer::onRcmp(const RcmpEvent &event)
{
    TraceRecord r;
    r.kind = TraceEventKind::RcmpDecision;
    r.cycles = event.cycles;
    r.pc = event.pc;
    r.sliceId = event.sliceId;
    r.aux = event.sliceInstrs;
    r.level = static_cast<std::uint8_t>(event.residence);
    if (event.fired)
        r.flags |= kTraceFired;
    if (event.poisoned)
        r.flags |= kTracePoisoned;
    if (event.histMissAbort)
        r.flags |= kTraceHistMissAbort;
    if (event.sfileAbort)
        r.flags |= kTraceSFileAbort;
    if (event.predictorUsed)
        r.flags |= kTracePredictorUsed;
    if (event.predictedMiss)
        r.flags |= kTracePredictedMiss;
    r.a = event.addr;
    // Realized energy delta of this instance: what firing saved (or
    // cost) under the charged model; zero for fallbacks (no swap).
    double delta = event.fired ? event.loadNj - event.sliceNj : 0.0;
    r.b = std::bit_cast<std::uint64_t>(delta);
    _buffer.append(r);

    // Aborts get their own instant events so Hist pressure and SFile
    // kills are greppable without decoding the decision flags.
    if (event.histMissAbort || event.sfileAbort) {
        TraceRecord cause;
        cause.kind = event.histMissAbort ? TraceEventKind::HistMissFallback
                                         : TraceEventKind::SFileAbort;
        cause.cycles = event.cycles;
        cause.pc = event.pc;
        cause.sliceId = event.sliceId;
        cause.aux = event.sliceInstrs;
        _buffer.append(cause);
    }
}

void
AmnesicTracer::onSliceEntry(std::uint64_t cycles, std::uint32_t rcmp_pc,
                            std::uint32_t slice_id)
{
    TraceRecord r;
    r.kind = TraceEventKind::SliceEntry;
    r.cycles = cycles;
    r.pc = rcmp_pc;
    r.sliceId = slice_id;
    _buffer.append(r);
}

void
AmnesicTracer::onSliceExit(std::uint64_t cycles, std::uint32_t rcmp_pc,
                           std::uint32_t slice_id, std::uint32_t instrs,
                           bool completed)
{
    TraceRecord r;
    r.kind = TraceEventKind::SliceExit;
    r.cycles = cycles;
    r.pc = rcmp_pc;
    r.sliceId = slice_id;
    r.aux = instrs;
    if (completed)
        r.flags |= kTraceCompleted;
    _buffer.append(r);
}

void
AmnesicTracer::onRec(std::uint64_t cycles, std::uint32_t pc,
                     std::uint32_t slice_id, std::uint32_t leaf_addr,
                     bool overflowed)
{
    TraceRecord r;
    r.kind = overflowed ? TraceEventKind::HistOverflow
                        : TraceEventKind::RecWrite;
    r.cycles = cycles;
    r.pc = pc;
    r.sliceId = slice_id;
    r.aux = leaf_addr;
    _buffer.append(r);
}

void
AmnesicTracer::onShadowMismatch(std::uint64_t cycles, std::uint32_t pc,
                                std::uint32_t slice_id, std::uint64_t addr,
                                std::uint64_t recomputed,
                                std::uint64_t expected)
{
    TraceRecord r;
    r.kind = TraceEventKind::ShadowMismatch;
    r.cycles = cycles;
    r.pc = pc;
    r.sliceId = slice_id;
    r.aux = static_cast<std::uint32_t>(addr / 8);
    r.a = recomputed;
    r.b = expected;
    _buffer.append(r);
}

void
AmnesicTracer::onLoad(const Machine &e, std::uint32_t pc,
                      std::uint64_t addr, std::uint64_t value,
                      MemLevel serviced)
{
    TraceRecord r;
    r.kind = TraceEventKind::Load;
    r.cycles = e.stats().cycles;
    r.pc = pc;
    r.sliceId = kNoSlice;
    r.level = static_cast<std::uint8_t>(serviced);
    r.a = addr;
    r.b = value;
    _buffer.append(r);
}

void
AmnesicTracer::onStore(const Machine &e, std::uint32_t pc,
                       std::uint64_t addr, std::uint64_t value,
                       MemLevel serviced)
{
    TraceRecord r;
    r.kind = TraceEventKind::Store;
    r.cycles = e.stats().cycles;
    r.pc = pc;
    r.sliceId = kNoSlice;
    r.level = static_cast<std::uint8_t>(serviced);
    r.a = addr;
    r.b = value;
    _buffer.append(r);
}

namespace {

void
appendJsonlRecord(json::Writer &w, std::string &out, const TraceRecord &r)
{
    w.beginObject();
    w.key("ev").string(traceEventName(r.kind));
    w.key("ts").integer(r.cycles);
    w.key("pc").integer(r.pc);
    if (r.sliceId != kNoSlice)
        w.key("slice").integer(r.sliceId);
    switch (r.kind) {
      case TraceEventKind::RcmpDecision:
        w.key("addr").integer(r.a);
        w.key("res").string(memLevelName(static_cast<MemLevel>(r.level)));
        w.key("fired").boolean(r.flags & kTraceFired);
        if (r.flags & kTracePoisoned)
            w.key("poisoned").boolean(true);
        if (r.flags & kTraceHistMissAbort)
            w.key("histMissAbort").boolean(true);
        if (r.flags & kTraceSFileAbort)
            w.key("sfileAbort").boolean(true);
        if (r.flags & kTracePredictorUsed)
            w.key("pred").string((r.flags & kTracePredictedMiss) ? "miss"
                                                                 : "hit");
        w.key("instrs").integer(r.aux);
        w.key("deltaNj").number(std::bit_cast<double>(r.b));
        break;
      case TraceEventKind::SliceEntry:
        break;
      case TraceEventKind::SliceExit:
        w.key("instrs").integer(r.aux);
        w.key("completed").boolean(r.flags & kTraceCompleted);
        break;
      case TraceEventKind::RecWrite:
      case TraceEventKind::HistOverflow:
        w.key("leaf").integer(r.aux);
        break;
      case TraceEventKind::HistMissFallback:
      case TraceEventKind::SFileAbort:
        w.key("instrs").integer(r.aux);
        break;
      case TraceEventKind::ShadowMismatch:
        w.key("addr").integer(std::uint64_t{r.aux} * 8);
        w.key("got").integer(r.a);
        w.key("want").integer(r.b);
        break;
      case TraceEventKind::Load:
      case TraceEventKind::Store:
        w.key("addr").integer(r.a);
        w.key("val").integer(r.b);
        w.key("lvl").string(memLevelName(static_cast<MemLevel>(r.level)));
        break;
    }
    w.endObject();
    out += '\n';
}

void
appendChromeEvent(json::Writer &w, std::string &out, const TraceRecord &r,
                  int tid)
{
    std::string name;
    char ph = 'i';
    switch (r.kind) {
      case TraceEventKind::RcmpDecision:
        name = (r.flags & kTraceFired) ? "rcmp:fire" : "rcmp:fallback";
        break;
      case TraceEventKind::SliceEntry:
      case TraceEventKind::SliceExit:
        name = "slice " + std::to_string(r.sliceId);
        ph = r.kind == TraceEventKind::SliceEntry ? 'B' : 'E';
        break;
      default:
        name = traceEventName(r.kind);
        break;
    }
    beginChromeEvent(w, out).key("name").string(name);
    w.key("ph").string(std::string_view(&ph, 1));
    w.key("ts").integer(r.cycles);
    w.key("pid").integer(1);
    w.key("tid").integer(static_cast<std::uint64_t>(tid));
    if (ph == 'i')
        w.key("s").string("t");
    w.key("args").beginObject();
    switch (r.kind) {
      case TraceEventKind::RcmpDecision:
        w.key("pc").integer(r.pc);
        w.key("slice").integer(r.sliceId);
        w.key("addr").integer(r.a);
        w.key("residence").string(
            memLevelName(static_cast<MemLevel>(r.level)));
        w.key("deltaNj").number(std::bit_cast<double>(r.b));
        break;
      case TraceEventKind::SliceEntry:
        w.key("pc").integer(r.pc);
        break;
      case TraceEventKind::SliceExit:
        w.key("instrs").integer(r.aux);
        break;
      default:
        w.key("pc").integer(r.pc);
        if (r.sliceId != kNoSlice)
            w.key("slice").integer(r.sliceId);
        break;
    }
    w.endObject().endObject();
}

/** The metadata event that names track `tid` of pid 1. */
void
appendThreadName(json::Writer &w, std::string &out, int tid,
                 std::string_view name)
{
    beginChromeEvent(w, out).key("name").string("thread_name");
    w.key("ph").string("M");
    w.key("pid").integer(1);
    w.key("tid").integer(static_cast<std::uint64_t>(tid));
    w.key("args").beginObject().key("name").string(name);
    w.endObject().endObject();
}

}  // namespace

std::string
renderTraceJsonl(const TraceBuffer &buffer)
{
    std::string out;
    out.reserve(buffer.size() * 96 + 128);
    json::Writer w(out);
    for (const TraceRecord &r : buffer.records())
        appendJsonlRecord(w, out, r);
    w.beginObject().key("ev").string("meta");
    w.key("kept").integer(buffer.size());
    w.key("dropped").integer(buffer.dropped());
    w.endObject();
    out += '\n';
    return out;
}

std::string
renderChromeTrace(const std::vector<TraceTrack> &tracks,
                  const std::vector<PhaseSpan> &phases,
                  const std::vector<SpanProfiler::ThreadSpans> &host)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("traceEvents").beginArray();
    out += '\n';

    // tid 0: the wall-clock pipeline-phase track.
    if (!phases.empty()) {
        appendThreadName(w, out, 0, "pipeline (wall clock)");
        for (const PhaseSpan &span : phases) {
            beginChromeEvent(w, out).key("name").string(span.name);
            w.key("ph").string("X");
            w.key("ts").number(span.startUs);
            w.key("dur").number(span.durUs);
            w.key("pid").integer(1);
            w.key("tid").integer(0);
            w.endObject();
        }
    }

    int tid = 1;
    for (const TraceTrack &track : tracks) {
        appendThreadName(w, out, tid, track.name + " (cycles)");
        if (track.buffer)
            for (const TraceRecord &r : track.buffer->records())
                appendChromeEvent(w, out, r, tid);
        ++tid;
    }

    // pid 2: the host profiler's wall-clock thread tracks.
    appendHostSpanChromeEvents(w, out, host, /*pid=*/2);

    out += '\n';
    w.endArray().endObject();
    out += '\n';
    return out;
}

}  // namespace amnesiac
