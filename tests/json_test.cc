/**
 * @file
 * Byte-level contract of every machine-readable JSON output:
 *
 *  - the string escaper's table (quote, backslash, named and \u-coded
 *    control bytes; DEL and UTF-8 pass through untouched) and the
 *    writer's comma placement;
 *  - golden FNV-1a digests of each renderer over fixed hand-built
 *    inputs — lint JSON and SARIF, the trace JSONL stream, Chrome
 *    traces (cycle tracks, phase spans and host spans), the run
 *    manifest and the run-trace stream. Any layout change, however
 *    small, moves a digest;
 *  - control bytes inside names come out escaped, so every string in
 *    the output stays valid JSON.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "obs/manifest.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "report/experiment.h"
#include "report/obs_export.h"
#include "util/json.h"

namespace amnesiac {
namespace {

/** The escaped form of `text`, read back out of a lint report. */
std::string
escapedProgramName(const std::string &text)
{
    AnalysisReport report;
    report.programName = text;
    const std::string json = report.renderJson();
    const std::string head = "{\"program\":\"";
    const std::string tail = "\",\"errors\":0,";
    EXPECT_EQ(json.rfind(head, 0), 0u) << json;
    const std::size_t end = json.find(tail);
    EXPECT_NE(end, std::string::npos) << json;
    return json.substr(head.size(), end - head.size());
}

TEST(Json, EscapingTable)
{
    struct Case
    {
        std::string in;
        std::string out;
    };
    const std::vector<Case> table = {
        {"\"", "\\\""},
        {"\\", "\\\\"},
        {"\n", "\\n"},
        {"\t", "\\t"},
        {std::string(1, '\x01'), "\\u0001"},
        {std::string(1, '\x1f'), "\\u001f"},
        {std::string(1, '\x7f'), std::string(1, '\x7f')},
        {"\xc3\xa9", "\xc3\xa9"},
        {"plain a/b", "plain a/b"},
    };
    for (const Case &c : table) {
        EXPECT_EQ(escapedProgramName(c.in), c.out);
        std::string quoted;
        json::appendString(quoted, c.in);
        EXPECT_EQ(quoted, "\"" + c.out + "\"");
    }
}

TEST(Json, WriterPlacesCommasAndNesting)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("a").integer(1).key("b").beginArray();
    w.number(0.5).boolean(false).string("x").beginObject().endObject();
    w.endArray().key("c").raw("1.250").endObject();
    EXPECT_EQ(out, "{\"a\":1,\"b\":[0.5,false,\"x\",{}],\"c\":1.250}");

    // Top-level values run back to back: a JSONL stream adds its own
    // newlines.
    out.clear();
    json::Writer lines(out);
    lines.beginObject().endObject();
    out += '\n';
    lines.beginArray().endArray();
    EXPECT_EQ(out, "{}\n[]");
}

TEST(Json, SeparateLetsTheCallerPlaceNewlines)
{
    std::string out;
    json::Writer w(out);
    w.beginArray();
    EXPECT_FALSE(w.separate());
    out += '\n';
    w.integer(1);
    EXPECT_TRUE(w.separate());
    out += '\n';
    w.integer(2);
    w.endArray();
    EXPECT_EQ(out, "[\n1,\n2]");
}

/** One record of every kind, plus one dropped past the cap. */
TraceBuffer
everyKindBuffer()
{
    auto record = [](TraceEventKind kind, std::uint64_t cycles,
                     std::uint32_t pc, std::uint32_t slice,
                     std::uint32_t aux = 0) {
        TraceRecord r;
        r.kind = kind;
        r.cycles = cycles;
        r.pc = pc;
        r.sliceId = slice;
        r.aux = aux;
        return r;
    };
    TraceBuffer buffer(14);
    TraceRecord fired = record(TraceEventKind::RcmpDecision, 100, 7, 2, 9);
    fired.flags = kTraceFired | kTracePoisoned | kTraceHistMissAbort |
                  kTraceSFileAbort | kTracePredictorUsed |
                  kTracePredictedMiss;
    fired.level = 2;
    fired.a = 4096;
    fired.b = std::bit_cast<std::uint64_t>(1.0 / 3.0);
    buffer.append(fired);
    TraceRecord fallback =
        record(TraceEventKind::RcmpDecision, 101, 8, 3, 4);
    fallback.flags = kTracePredictorUsed;
    fallback.a = 8;
    fallback.b = std::bit_cast<std::uint64_t>(-2.5e-7);
    buffer.append(fallback);
    buffer.append(record(TraceEventKind::SliceEntry, 102, 7, 2));
    TraceRecord completed = record(TraceEventKind::SliceExit, 110, 7, 2, 3);
    completed.flags = kTraceCompleted;
    buffer.append(completed);
    buffer.append(record(TraceEventKind::SliceExit, 111, 8, 3, 5));
    buffer.append(record(TraceEventKind::RecWrite, 120, 30, 2, 512));
    buffer.append(record(TraceEventKind::HistOverflow, 121, 31, 4, 520));
    buffer.append(record(TraceEventKind::HistMissFallback, 130, 8, 3, 1));
    buffer.append(record(TraceEventKind::SFileAbort, 131, 9, 5, 6));
    TraceRecord mismatch =
        record(TraceEventKind::ShadowMismatch, 140, 7, 2, 77);
    mismatch.a = 0xfffffffffffffff0ull;
    mismatch.b = 12;
    buffer.append(mismatch);
    TraceRecord load = record(TraceEventKind::Load, 150, 11, kNoSlice);
    load.level = 3;
    load.a = 1024;
    load.b = 99;
    buffer.append(load);
    TraceRecord store = record(TraceEventKind::Store, 151, 12, kNoSlice);
    store.level = 1;
    store.a = 1032;
    buffer.append(store);
    buffer.append(
        record(TraceEventKind::HistOverflow, 160, 32, kNoSlice, 528));
    buffer.append(record(TraceEventKind::SliceEntry, 170, 7, 0));
    // Past the cap: counted as dropped.
    buffer.append(record(TraceEventKind::SliceEntry, 180, 7, 1));
    return buffer;
}

SpanRecord
span(const char *name, std::uint64_t start_ns, std::uint64_t end_ns,
     std::uint16_t depth,
     std::vector<std::pair<const char *, std::uint64_t>> counters = {})
{
    SpanRecord r;
    std::strncpy(r.name, name, sizeof(r.name) - 1);
    r.startNs = start_ns;
    r.endNs = end_ns;
    r.depth = depth;
    for (const auto &[key, value] : counters) {
        SpanRecord::Counter &c = r.counters[r.counterCount++];
        std::strncpy(c.key, key, sizeof(c.key) - 1);
        c.value = value;
    }
    return r;
}

std::vector<SpanProfiler::ThreadSpans>
hostSpans()
{
    SpanProfiler::ThreadSpans main_thread;
    main_thread.tid = 0;
    main_thread.name = "main";
    main_thread.spans = {
        span("prepare mcf", 1000, 2500999, 0),
        span("pass:profile \"q\"", 1234567, 2345678, 1,
             {{"productions", 123}, {"arenaNodes", 45},
              {"k\\\"q", 7}, {"walkNodes", 0}}),
    };
    SpanProfiler::ThreadSpans worker;
    worker.tid = 3;
    worker.name = "pool \\worker";
    worker.spans = {span("pool:task", 999, 1000, 0, {{"n", 1}})};
    SpanProfiler::ThreadSpans idle;
    idle.tid = 4;
    idle.name = "idle";
    return {main_thread, worker, idle};
}

TEST(JsonGolden, TraceJsonl)
{
    const std::string out = renderTraceJsonl(everyKindBuffer());
    EXPECT_EQ(fnv1aDigest(out), 0x1da95827a290adc6ull) << out;
    const std::string empty = renderTraceJsonl(TraceBuffer());
    EXPECT_EQ(fnv1aDigest(empty), 0x194c62ce27149531ull) << empty;
}

TEST(JsonGolden, ChromeTrace)
{
    const TraceBuffer buffer = everyKindBuffer();
    const std::vector<TraceTrack> tracks = {
        {"mcf/FLC \"quoted\" back\\slash", &buffer},
        {"no buffer", nullptr},
        {"mcf/LLC", &buffer},
    };
    const std::vector<PhaseSpan> phases = {
        {"classic mcf", 0.0, 12.5},
        {"compile \"mcf\"", 12.5, 1e6 / 3.0},
    };
    const std::string full = renderChromeTrace(tracks, phases, hostSpans());
    EXPECT_EQ(fnv1aDigest(full), 0x695f945039e27d03ull) << full;
    const std::string tracks_only = renderChromeTrace(tracks);
    EXPECT_EQ(fnv1aDigest(tracks_only), 0x79f87b952979abb9ull) << tracks_only;
    const std::string phases_only = renderChromeTrace({}, phases);
    EXPECT_EQ(fnv1aDigest(phases_only), 0x2a3a985d393d613full) << phases_only;
    const std::string empty = renderChromeTrace({});
    EXPECT_EQ(fnv1aDigest(empty), 0x8484649d3f806e0full) << empty;
}

TEST(JsonGolden, HostSpanChromeTrace)
{
    const std::string out = renderHostSpanChromeTrace(hostSpans());
    EXPECT_EQ(fnv1aDigest(out), 0xa5c394164229a5d2ull) << out;
    const std::string empty = renderHostSpanChromeTrace({});
    EXPECT_EQ(fnv1aDigest(empty), 0x58d43cf48df0b5e0ull) << empty;
}

RunManifest
fixedManifest()
{
    RunManifest m;
    m.configDigest = 0x0123456789abcdefull;
    m.seed = 7919;
    m.jobsRequested = 4;
    m.jobsEffective = 3;
    m.prunedCandidates = 42;
    m.cacheHits = 1;
    m.cacheMisses = 1;
    m.phases = {1.25, 2.5, 0.125, 1.0, 3.75, 7.5};
    m.passes = {{"prune", 0.001}, {"profile", 1.0}, {"dryrun", 1.0 / 3.0}};
    m.pool.jobsExecuted = 17;
    m.pool.queueWaitSec = 0.0005;
    m.pool.workerBusySec = 9.87654321;
    return m;
}

TEST(JsonGolden, Manifest)
{
    const std::string out = renderManifestJson(fixedManifest());
    EXPECT_EQ(fnv1aDigest(out), 0xcb3e5b70b63626a8ull) << out;
    const std::string empty = renderManifestJson(RunManifest{});
    EXPECT_EQ(fnv1aDigest(empty), 0x8807bd18e73bb4d7ull) << empty;
}

TEST(JsonGolden, RunTraceJsonl)
{
    BenchmarkResult result;
    result.name = "mcf";
    result.manifest = fixedManifest();
    PolicyOutcome fired;
    fired.policy = Policy::FLC;
    fired.trace = everyKindBuffer();
    PolicyOutcome quiet;
    quiet.policy = Policy::Oracle;
    result.policies = {fired, quiet};
    BenchmarkResult other;
    other.name = "is";
    other.manifest.seed = 1;
    PolicyOutcome compiler;
    compiler.policy = Policy::Compiler;
    other.policies = {compiler};
    const std::string out = renderRunTraceJsonl({result, other});
    EXPECT_EQ(fnv1aDigest(out), 0x406ab3be03f611b9ull) << out;
}

std::vector<AnalysisReport>
fixedReports()
{
    AnalysisReport a;
    a.programName = "prog \"a\" \\ b";
    a.add("AMN101", Severity::Error, "non-sliceable \"op\"")
        .at(12)
        .inSlice(3)
        .note("first note")
        .note("second \\ note");
    a.add("AMN202", Severity::Warning, "dead REC");
    a.add("AMN703", Severity::Note, "constant-input slice").at(0);
    a.add("AMN403", Severity::Warning, "unreachable").inSlice(0);
    AnalysisReport clean;
    clean.programName = "clean";
    AnalysisReport b;
    b.programName = "b";
    b.add("AMN404", Severity::Error, "no reachable HALT").at(4095);
    return {a, clean, b};
}

TEST(JsonGolden, LintJson)
{
    std::string all;
    for (const AnalysisReport &report : fixedReports())
        all += report.renderJson() + "\n";
    EXPECT_EQ(fnv1aDigest(all), 0xa87cc9d3c872a19eull) << all;
}

TEST(JsonGolden, Sarif)
{
    const std::string out = renderSarif(fixedReports());
    EXPECT_EQ(fnv1aDigest(out), 0x5edb4dc2c5b66dd1ull) << out;
    const std::string empty = renderSarif({});
    EXPECT_EQ(fnv1aDigest(empty), 0x732c3f479cb73403ull) << empty;
}

/** True when no byte below 0x20 appears inside any JSON string. */
bool
stringsHaveNoRawControlBytes(const std::string &json)
{
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (!in_string) {
            in_string = c == '"';
        } else if (c == '\\') {
            ++i;
        } else if (c == '"') {
            in_string = false;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            return false;
        }
    }
    return true;
}

TEST(Json, ControlBytesInNamesAreEscaped)
{
    const TraceBuffer buffer = everyKindBuffer();
    std::vector<SpanProfiler::ThreadSpans> host = hostSpans();
    host[0].name = "tab\there";
    const std::string out =
        renderChromeTrace({{"a\nb", &buffer}}, {{"x\x01y", 0.0, 1.0}}, host);
    EXPECT_TRUE(stringsHaveNoRawControlBytes(out)) << out;
    EXPECT_NE(out.find("\"a\\nb (cycles)\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"x\\u0001y\""), std::string::npos) << out;
}

}  // namespace
}  // namespace amnesiac
