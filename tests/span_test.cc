/**
 * @file
 * Host-side span profiler tests pinned to obs/span.h's contracts:
 *
 *  (a) nesting determinism — parent/depth/order of records on one
 *      thread reflect construction order exactly, names compose as
 *      "base detail/detail2", counters stick;
 *  (b) pool parentage — spans recorded by thread-pool workers form
 *      well-formed per-thread trees (parent precedes child, depth is
 *      parent's + 1), the queue-wait/task instrumentation appears, and
 *      parallelFor's barrier wait is a join-wait child of the caller;
 *  (c) the Chrome trace export is structurally valid JSON with the
 *      host pid and thread metadata;
 *  (d) flame-table aggregation buckets by base name and subtracts
 *      direct children from self time, spans record their thread's
 *      CPU time, and the footer sets the work rows' self CPU time
 *      against the host's wall and CPU seconds;
 *  (e) the disabled path performs zero heap allocations (the cost
 *      contract that lets the instrumentation ship enabled-in-code in
 *      every binary);
 *  (f) the run manifest renders the per-pass timing table and the
 *      per-pass laps sum to the measured compile phase.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.h"
#include "obs/span.h"
#include "report/experiment.h"
#include "util/thread_pool.h"
#include "workloads/registry.h"

// --- global allocation counter --------------------------------------------
// Replaces the global scalar operator new for this test binary only (each
// test .cc links into its own gtest executable). new[] funnels through
// this by the default-implementation rule. The nothrow form is replaced
// too: std::stable_partition's temporary buffer comes from it and goes
// back through the replaced delete, which must free what malloc gave.

static std::atomic<std::uint64_t> g_newCalls{0};

void *
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace amnesiac {
namespace {

/** The calling thread's records from a collect() snapshot, located by
 * a span name they must contain (tids depend on which test touched the
 * profiler first, so lookups by name stay order-independent). */
std::vector<SpanRecord>
spansContaining(const std::vector<SpanProfiler::ThreadSpans> &threads,
                const std::string &needle)
{
    for (const auto &thread : threads)
        for (const SpanRecord &record : thread.spans)
            if (std::string(record.name).find(needle) != std::string::npos)
                return thread.spans;
    return {};
}

TEST(SpanProfiler, NestingDeterminism)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    const std::string workload = "w1";
    {
        ScopedSpan outer("outer", workload);
        outer.counter("k", 7);
        {
            ScopedSpan inner_one("inner:one");
            ScopedSpan inner_two("inner:two", workload, "FLC");
            inner_two.counter("instrs", 42);
            inner_two.counter("bytes", 9);
        }
        profiler.recordInterval("interval", 5, 10, "n", 3);
    }
    profiler.disable();

    const std::vector<SpanRecord> spans =
        spansContaining(profiler.collect(), "outer w1");
    ASSERT_GE(spans.size(), 4u);
    // Records land in open order; find our four (other tests in this
    // binary may have recorded on this thread before us).
    std::size_t base = spans.size();
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (std::string(spans[i].name) == "outer w1")
            base = i;
    ASSERT_LE(base + 3, spans.size() - 1);

    const SpanRecord &outer = spans[base];
    const SpanRecord &one = spans[base + 1];
    const SpanRecord &two = spans[base + 2];
    const SpanRecord &interval = spans[base + 3];

    EXPECT_EQ(outer.depth, 0u);
    EXPECT_EQ(outer.counterCount, 1u);
    EXPECT_STREQ(outer.counters[0].key, "k");
    EXPECT_EQ(outer.counters[0].value, 7u);
    EXPECT_GE(outer.endNs, outer.startNs);

    EXPECT_STREQ(one.name, "inner:one");
    EXPECT_EQ(one.parent, base);
    EXPECT_EQ(one.depth, 1u);

    // inner_one was still open when inner_two opened.
    EXPECT_STREQ(two.name, "inner:two w1/FLC");
    EXPECT_EQ(two.parent, base + 1);
    EXPECT_EQ(two.depth, 2u);
    ASSERT_EQ(two.counterCount, 2u);
    EXPECT_STREQ(two.counters[0].key, "instrs");
    EXPECT_EQ(two.counters[0].value, 42u);
    EXPECT_STREQ(two.counters[1].key, "bytes");
    EXPECT_EQ(two.counters[1].value, 9u);

    // recordInterval nests under the span open at record time.
    EXPECT_STREQ(interval.name, "interval");
    EXPECT_EQ(interval.parent, base);
    EXPECT_EQ(interval.depth, 1u);
    EXPECT_EQ(interval.startNs, 5u);
    EXPECT_EQ(interval.endNs, 10u);
    ASSERT_EQ(interval.counterCount, 1u);
    EXPECT_EQ(interval.counters[0].value, 3u);
}

TEST(SpanProfiler, EarlyStopIsIdempotent)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ScopedSpan span("stopped");
        EXPECT_TRUE(span.active());
        span.stop();
        EXPECT_FALSE(span.active());
        span.stop();                // no-op
        span.counter("late", 1);    // dropped: span already closed
    }
    profiler.disable();
    const std::vector<SpanRecord> spans =
        spansContaining(profiler.collect(), "stopped");
    ASSERT_FALSE(spans.empty());
    const SpanRecord &record = spans.back();
    EXPECT_GE(record.endNs, record.startNs);
    EXPECT_EQ(record.counterCount, 0u);
}

TEST(SpanProfiler, PoolParentageWellFormed)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ThreadPool pool(2);
        parallelFor(&pool, 8, [](std::size_t) {
            volatile std::uint64_t sink = 0;
            for (int i = 0; i < 1000; ++i)
                sink = sink + static_cast<std::uint64_t>(i);
        });
        pool.waitIdle();
    }
    profiler.disable();

    const std::vector<SpanProfiler::ThreadSpans> threads =
        profiler.collect();
    std::size_t tasks = 0;
    std::size_t waits = 0;
    for (const auto &thread : threads) {
        for (std::size_t i = 0; i < thread.spans.size(); ++i) {
            const SpanRecord &record = thread.spans[i];
            EXPECT_GE(record.endNs, record.startNs);
            if (record.parent == kNoSpanParent) {
                EXPECT_EQ(record.depth, 0u);
            } else {
                // Parents are opened before their children, on the
                // same thread, one level up.
                ASSERT_LT(record.parent, i);
                EXPECT_EQ(record.depth,
                          thread.spans[record.parent].depth + 1u);
            }
            const std::string name(record.name);
            tasks += name == "pool:task";
            waits += name == "pool:queue-wait";
        }
    }
    EXPECT_EQ(tasks, 8u);
    EXPECT_EQ(waits, 8u);

    // The same eight waits land in the pool's bucketed distribution.
    // (The pool above is destroyed; a fresh one answers for the
    // invariant instead — buckets always sum to jobsExecuted.)
    ThreadPool pool(2);
    parallelFor(&pool, 5, [](std::size_t) {});
    pool.waitIdle();
    const ThreadPool::Utilization u = pool.utilization();
    std::uint64_t bucketed = 0;
    for (const std::uint64_t count : u.queueWaitBuckets)
        bucketed += count;
    EXPECT_EQ(bucketed, u.jobsExecuted);
}

TEST(SpanProfiler, JoinWaitIsNotTheCallersSelfTime)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ThreadPool pool(2);
        ScopedSpan parent("join:parent");
        parallelFor(&pool, 4, [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
    }
    profiler.disable();

    SpanProfiler::ThreadSpans caller;
    for (const auto &thread : profiler.collect())
        for (const SpanRecord &record : thread.spans)
            if (std::string(record.name) == "join:parent")
                caller = thread;
    ASSERT_FALSE(caller.spans.empty());

    // The barrier wait is a direct child of the span around parallelFor.
    std::size_t parent = caller.spans.size();
    std::size_t wait = caller.spans.size();
    for (std::size_t i = 0; i < caller.spans.size(); ++i) {
        const std::string name(caller.spans[i].name);
        if (name == "join:parent")
            parent = i;
        if (name == "pool:join-wait" && caller.spans[i].parent == parent)
            wait = i;
    }
    ASSERT_LT(wait, caller.spans.size());
    const SpanRecord &wait_record = caller.spans[wait];
    const double wait_sec =
        static_cast<double>(wait_record.endNs - wait_record.startNs) * 1e-9;
    // Two workers sleep through four 20 ms tasks: at least one task's
    // sleep is spent blocked in the join.
    EXPECT_GE(wait_sec, 0.02);

    // The flame table charges that wait to pool:join-wait, not to the
    // parent: the parent's self time is its total minus the wait.
    std::size_t rows = 0;
    for (const SpanAggregate &row : aggregateSpans({caller})) {
        if (row.name != "join:parent")
            continue;
        ++rows;
        EXPECT_EQ(row.count, 1u);
        EXPECT_NEAR(row.selfSec, row.totalSec - wait_sec, 1e-9);
        EXPECT_LT(row.selfSec, row.totalSec / 2);
    }
    EXPECT_EQ(rows, 1u);
}

/** Minimal structural JSON validation: balanced braces/brackets
 * outside strings, properly terminated strings. */
void
expectBalancedJson(const std::string &text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(SpanProfiler, ChromeTraceExportIsStructurallyValid)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ScopedSpan outer("chrome:outer", "needs \"escaping\"\n");
        ScopedSpan inner("chrome:inner");
        inner.counter("bytes", 123);
    }
    profiler.disable();

    const std::string trace =
        renderHostSpanChromeTrace(profiler.collect());
    expectBalancedJson(trace);
    EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(trace.find("host:"), std::string::npos);
    EXPECT_NE(trace.find("chrome:inner"), std::string::npos);
    EXPECT_NE(trace.find("\"bytes\":123"), std::string::npos);
    // The quote and newline in the detail must render escaped.
    EXPECT_NE(trace.find("needs \\\"escaping\\\"\\n"), std::string::npos);
}

TEST(SpanAggregation, BucketsByBaseNameAndSubtractsChildren)
{
    SpanProfiler::ThreadSpans thread;
    thread.tid = 0;
    thread.name = "main";

    SpanRecord work_a;
    work_a.startNs = 0;
    work_a.endNs = 1'000'000;
    std::snprintf(work_a.name, sizeof(work_a.name), "work a");

    SpanRecord sub;
    sub.startNs = 100'000;
    sub.endNs = 500'000;
    sub.parent = 0;
    sub.depth = 1;
    std::snprintf(sub.name, sizeof(sub.name), "sub");

    SpanRecord work_b;
    work_b.startNs = 1'000'000;
    work_b.endNs = 1'500'000;
    std::snprintf(work_b.name, sizeof(work_b.name), "work b");

    thread.spans = {work_a, sub, work_b};
    const std::vector<SpanAggregate> rows = aggregateSpans({thread});
    ASSERT_EQ(rows.size(), 2u);

    // "work a" and "work b" fold into one bucket; 0.4 ms of "work a"
    // belongs to its child. Self-sorted: work (1.1ms) before sub.
    EXPECT_EQ(rows[0].name, "work");
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_NEAR(rows[0].totalSec, 1.5e-3, 1e-12);
    EXPECT_NEAR(rows[0].selfSec, 1.1e-3, 1e-12);
    EXPECT_EQ(rows[1].name, "sub");
    EXPECT_NEAR(rows[1].selfSec, 0.4e-3, 1e-12);

    const std::string table = renderSpanFlameTable({thread});
    EXPECT_NE(table.find("span"), std::string::npos);
    EXPECT_NE(table.find("work"), std::string::npos);
    EXPECT_NE(table.find("self%"), std::string::npos);
}

TEST(SpanAggregation, WaitRowsStayOutOfSelfPercent)
{
    // A worker records the queue wait of its next task while it is
    // still busy with the current one: the two overlap on one thread.
    SpanProfiler::ThreadSpans thread;
    thread.tid = 1;
    thread.name = "worker";

    SpanRecord task;
    task.startNs = 0;
    task.endNs = 1'000'000;
    std::snprintf(task.name, sizeof(task.name), "pool:task");

    SpanRecord queued;
    queued.startNs = 500'000;
    queued.endNs = 4'000'000;
    std::snprintf(queued.name, sizeof(queued.name), "pool:queue-wait");

    thread.spans = {task, queued};
    const std::string table = renderSpanFlameTable({thread});

    // Rows in order: header, the task at 100%, then the wait row (the
    // larger self time) marked as waiting.
    std::istringstream lines(table);
    std::string header, task_row, wait_row;
    std::getline(lines, header);
    std::getline(lines, task_row);
    std::getline(lines, wait_row);
    EXPECT_EQ(task_row.rfind("pool:task ", 0), 0u) << table;
    EXPECT_TRUE(task_row.ends_with("100.00%")) << table;
    EXPECT_EQ(wait_row.rfind("pool:queue-wait ", 0), 0u) << table;
    EXPECT_TRUE(wait_row.ends_with(" wait")) << table;
}

TEST(SpanProfiler, SpansRecordThreadCpuTime)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ScopedSpan sleep("cpu:sleep");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    {
        ScopedSpan spin("cpu:spin");
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 20'000'000; ++i)
            sink = sink + i;
    }
    profiler.disable();
    std::size_t seen = 0;
    for (const auto &thread : profiler.collect())
        for (const SpanRecord &record : thread.spans) {
            const std::string name(record.name);
            if (name == "cpu:sleep") {
                ++seen;
                EXPECT_GE(record.seconds(), 0.02);
                EXPECT_LT(record.cpuSeconds(), record.seconds() / 2);
            } else if (name == "cpu:spin") {
                ++seen;
                EXPECT_GT(record.cpuSeconds(), 0.0);
                EXPECT_LE(record.cpuStartNs, record.cpuEndNs);
            }
        }
    EXPECT_EQ(seen, 2u);
}

/** The flame table's last line, split on whitespace. */
std::vector<std::string>
footerTokens(const std::string &table)
{
    std::istringstream lines(table);
    std::string line, last;
    while (std::getline(lines, line))
        last = line;
    std::istringstream words(last);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;)
        tokens.push_back(word);
    return tokens;
}

TEST(SpanAggregation, FooterSetsWorkSelfTimeAgainstHostSeconds)
{
    // 2 ms of work of which 1 ms on a core, and a 3 ms queue wait: the
    // work sum counts the CPU time of the work only.
    SpanProfiler::ThreadSpans thread;
    thread.tid = 1;
    SpanRecord task;
    task.endNs = 2'000'000;
    task.cpuStartNs = 5'000'000;
    task.cpuEndNs = 6'000'000;
    std::snprintf(task.name, sizeof(task.name), "pool:task");
    SpanRecord queued;
    queued.endNs = 3'000'000;
    std::snprintf(queued.name, sizeof(queued.name), "pool:queue-wait");
    thread.spans = {task, queued};

    const std::vector<std::string> tokens =
        footerTokens(renderSpanFlameTable({thread}, {2.5, 0.004}));
    ASSERT_EQ(tokens.size(), 8u);
    EXPECT_EQ(tokens[0], "wall_s");
    EXPECT_DOUBLE_EQ(std::stod(tokens[1]), 2.5);
    EXPECT_EQ(tokens[2], "cpu_s");
    EXPECT_DOUBLE_EQ(std::stod(tokens[3]), 0.004);
    EXPECT_EQ(tokens[4], "work_self_s");
    EXPECT_DOUBLE_EQ(std::stod(tokens[5]), 0.001);
    EXPECT_EQ(tokens[6], "work/cpu");
    EXPECT_EQ(tokens[7], "25.0%");

    // By default the footer samples this process, which has spent CPU.
    EXPECT_GT(HostSeconds::sample().cpuSec, 0.0);
    const std::vector<std::string> sampled =
        footerTokens(renderSpanFlameTable({thread}));
    ASSERT_EQ(sampled.size(), 8u);
    EXPECT_GE(std::stod(sampled[1]), 0.0);
    EXPECT_GE(std::stod(sampled[3]), 0.0);
}

TEST(SpanProfiler, DisabledPathAllocatesNothing)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.disable();
    const std::string detail = "some-workload-name";

    const std::uint64_t before =
        g_newCalls.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        ScopedSpan span("pass:prune", detail);
        span.counter("sites", 11);
        ScopedSpan nested("cache:probe", detail, "FLC");
        nested.stop();
        profiler.recordInterval("pool:queue-wait", 1, 2, "n", 1);
    }
    const std::uint64_t after =
        g_newCalls.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "disabled span sites must not allocate";
}

TEST(RunManifest, RendersPassTableAndCacheMisses)
{
    RunManifest manifest;
    manifest.configDigest = 0x123456789abcdef0ull;
    manifest.seed = 7;
    manifest.cacheHits = 2;
    manifest.cacheMisses = 3;
    manifest.passes = {{"prune", 0.01}, {"profile", 0.25}};

    const std::string json = renderManifestJson(manifest);
    EXPECT_NE(json.find("\"cacheHits\":2,\"cacheMisses\":3"),
              std::string::npos);
    EXPECT_NE(
        json.find("\"passes\":{\"prune\":0.010000,\"profile\":0.250000}"),
        std::string::npos);
    expectBalancedJson(json);
}

TEST(ExperimentPasses, PassLapsSumToCompilePhase)
{
    ExperimentConfig config;
    config.jobs = 1;
    ExperimentRunner runner(config);
    const Workload workload = makeWorkload("stream-recompute", 1);
    const BenchmarkResult result = runner.run(workload, {Policy::Compiler});

    double sum = 0.0;
    bool saw_profile = false;
    for (const PassTime &pass : result.manifest.passes) {
        EXPECT_GE(pass.sec, 0.0);
        sum += pass.sec;
        saw_profile |= pass.name == "profile";
    }
    EXPECT_TRUE(saw_profile);
    ASSERT_EQ(result.manifest.passes.size(), 6u);

    // The lap timer is gap-free, so the table accounts for the whole
    // compile phase; the slack covers the phase timer's extra scope
    // (compiler construction, result moves) plus clock granularity.
    const double compile_sec = result.manifest.phases.compileSec;
    EXPECT_GT(sum, 0.0);
    EXPECT_NEAR(sum, compile_sec,
                std::max(0.02 * compile_sec, 0.005));
}

}  // namespace
}  // namespace amnesiac
