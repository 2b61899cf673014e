#include "obs/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>

#include <sys/resource.h>
#include <time.h>

namespace amnesiac {

namespace {

/** Copy `src` into a fixed NUL-terminated buffer, truncating. */
template <std::size_t N>
void copyTruncated(char (&dst)[N], std::string_view src)
{
    const std::size_t n = std::min(src.size(), N - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

/** Compose "name detail/detail2" into the record's name field without
 * heap allocation. */
void composeName(char (&dst)[48], const char *name, std::string_view detail,
                 std::string_view detail2)
{
    std::size_t pos = 0;
    const std::size_t cap = sizeof(dst) - 1;
    auto append = [&](std::string_view part) {
        const std::size_t n = std::min(part.size(), cap - pos);
        std::memcpy(dst + pos, part.data(), n);
        pos += n;
    };
    append(name);
    if (!detail.empty()) {
        append(" ");
        append(detail);
    }
    if (!detail2.empty()) {
        append("/");
        append(detail2);
    }
    dst[pos] = '\0';
}

std::int64_t steadyNowRaw()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The calling thread's CPU time in ns. */
std::uint64_t threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

thread_local std::shared_ptr<SpanProfiler::ThreadBuffer>
    SpanProfiler::t_buffer;

SpanProfiler &
SpanProfiler::instance()
{
    static SpanProfiler profiler;
    return profiler;
}

SpanProfiler::ThreadBuffer &
SpanProfiler::localBuffer()
{
    if (!t_buffer) {
        auto buffer = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(_mutex);
        buffer->tid = static_cast<std::uint32_t>(_threads.size());
        buffer->name =
            buffer->tid == 0 ? "main" : "thread-" + std::to_string(buffer->tid);
        buffer->records.reserve(256);
        _threads.push_back(buffer);
        t_buffer = std::move(buffer);
    }
    return *t_buffer;
}

void
SpanProfiler::enable()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &buffer : _threads) {
        buffer->records.clear();
        buffer->openStack.clear();
    }
    _epochNs.store(steadyNowRaw(), std::memory_order_relaxed);
    // Release pairs with the acquire in enabled(): a thread that sees
    // the flag also sees the fresh epoch and cleared buffers.
    s_enabled.store(true, std::memory_order_release);
}

void
SpanProfiler::disable()
{
    s_enabled.store(false, std::memory_order_release);
}

void
SpanProfiler::setThreadName(std::string_view name)
{
    ThreadBuffer &buffer = localBuffer();
    std::lock_guard<std::mutex> lock(_mutex);  // collect() reads names
    buffer.name.assign(name.data(), name.size());
}

std::vector<SpanProfiler::ThreadSpans>
SpanProfiler::collect() const
{
    std::vector<ThreadSpans> out;
    std::lock_guard<std::mutex> lock(_mutex);
    out.reserve(_threads.size());
    for (const auto &buffer : _threads) {
        if (buffer->records.empty())
            continue;
        ThreadSpans spans;
        spans.tid = buffer->tid;
        spans.name = buffer->name;
        spans.spans = buffer->records;
        out.push_back(std::move(spans));
    }
    std::sort(out.begin(), out.end(),
              [](const ThreadSpans &a, const ThreadSpans &b) {
                  return a.tid < b.tid;
              });
    return out;
}

std::uint64_t
SpanProfiler::toNs(std::chrono::steady_clock::time_point tp) const
{
    const std::int64_t raw = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 tp.time_since_epoch())
                                 .count();
    const std::int64_t epoch = _epochNs.load(std::memory_order_relaxed);
    return raw > epoch ? static_cast<std::uint64_t>(raw - epoch) : 0;
}

void
SpanProfiler::recordInterval(const char *name, std::uint64_t start_ns,
                             std::uint64_t end_ns, const char *key,
                             std::uint64_t value)
{
    if (!enabled())
        return;
    ThreadBuffer &buffer = localBuffer();
    SpanRecord record;
    record.startNs = start_ns;
    record.endNs = end_ns >= start_ns ? end_ns : start_ns;
    record.parent =
        buffer.openStack.empty() ? kNoSpanParent : buffer.openStack.back();
    record.depth = static_cast<std::uint16_t>(buffer.openStack.size());
    copyTruncated(record.name, name);
    if (key != nullptr) {
        copyTruncated(record.counters[0].key, key);
        record.counters[0].value = value;
        record.counterCount = 1;
    }
    buffer.records.push_back(record);
}

void
ScopedSpan::open(const char *name, std::string_view detail,
                 std::string_view detail2)
{
    SpanProfiler &profiler = SpanProfiler::instance();
    SpanProfiler::ThreadBuffer &buffer = profiler.localBuffer();
    _buffer = &buffer;
    _index = static_cast<std::uint32_t>(buffer.records.size());
    SpanRecord record;
    record.startNs = profiler.nowNs();
    record.cpuStartNs = threadCpuNs();
    record.parent =
        buffer.openStack.empty() ? kNoSpanParent : buffer.openStack.back();
    record.depth = static_cast<std::uint16_t>(buffer.openStack.size());
    composeName(record.name, name, detail, detail2);
    buffer.records.push_back(record);
    buffer.openStack.push_back(_index);
}

void
ScopedSpan::close()
{
    // Guards below tolerate an enable() that cleared the buffer while
    // this span was open (a contract violation, but a cheap one to
    // survive without writing out of bounds).
    if (_index < _buffer->records.size()) {
        SpanRecord &record = _buffer->records[_index];
        record.endNs = SpanProfiler::instance().nowNs();
        record.cpuEndNs = threadCpuNs();
    }
    if (!_buffer->openStack.empty() && _buffer->openStack.back() == _index)
        _buffer->openStack.pop_back();
    _buffer = nullptr;
}

void
ScopedSpan::counter(const char *key, std::uint64_t value)
{
    if (_buffer == nullptr || _index >= _buffer->records.size())
        return;
    SpanRecord &record = _buffer->records[_index];
    if (record.counterCount >= kMaxSpanCounters)
        return;
    SpanRecord::Counter &slot = record.counters[record.counterCount];
    copyTruncated(slot.key, key);
    slot.value = value;
    ++record.counterCount;
}

namespace {

std::string_view baseName(const SpanRecord &record)
{
    std::string_view name(record.name);
    const std::size_t space = name.find(' ');
    return space == std::string_view::npos ? name : name.substr(0, space);
}

}  // namespace

std::vector<SpanAggregate>
aggregateSpans(const std::vector<SpanProfiler::ThreadSpans> &threads)
{
    std::map<std::string, SpanAggregate, std::less<>> buckets;
    std::vector<double> child_sec;
    std::vector<double> child_cpu_sec;
    for (const auto &thread : threads) {
        child_sec.assign(thread.spans.size(), 0.0);
        child_cpu_sec.assign(thread.spans.size(), 0.0);
        for (const SpanRecord &record : thread.spans) {
            if (record.parent != kNoSpanParent &&
                record.parent < child_sec.size()) {
                child_sec[record.parent] += record.seconds();
                child_cpu_sec[record.parent] += record.cpuSeconds();
            }
        }
        for (std::size_t i = 0; i < thread.spans.size(); ++i) {
            const SpanRecord &record = thread.spans[i];
            const std::string_view base = baseName(record);
            auto it = buckets.find(base);
            if (it == buckets.end())
                it = buckets.emplace(std::string(base), SpanAggregate{}).first;
            SpanAggregate &agg = it->second;
            if (agg.name.empty())
                agg.name = std::string(base);
            agg.count += 1;
            agg.totalSec += record.seconds();
            agg.selfSec += std::max(0.0, record.seconds() - child_sec[i]);
            agg.selfCpuSec +=
                std::max(0.0, record.cpuSeconds() - child_cpu_sec[i]);
        }
    }
    std::vector<SpanAggregate> out;
    out.reserve(buckets.size());
    for (auto &entry : buckets)
        out.push_back(std::move(entry.second));
    std::sort(out.begin(), out.end(),
              [](const SpanAggregate &a, const SpanAggregate &b) {
                  if (a.selfSec != b.selfSec)
                      return a.selfSec > b.selfSec;
                  return a.name < b.name;
              });
    return out;
}

HostSeconds
HostSeconds::sample()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {static_cast<double>(SpanProfiler::instance().nowNs()) * 1e-9,
            seconds(usage.ru_utime) + seconds(usage.ru_stime)};
}

std::string
renderSpanFlameTable(const std::vector<SpanProfiler::ThreadSpans> &threads,
                     const HostSeconds &host)
{
    std::vector<SpanAggregate> rows = aggregateSpans(threads);
    // The pool's wait records overlap work on the same thread (a queue
    // wait runs while the worker is busy with the previous task), so
    // they stay out of the self% denominator and print last.
    auto waiting = [](const SpanAggregate &row) {
        return row.name.starts_with("pool:") && row.name.ends_with("-wait");
    };
    std::stable_partition(rows.begin(), rows.end(), std::not_fn(waiting));
    double self_total = 0.0;
    double self_cpu_total = 0.0;
    std::size_t name_width = 4;  // "span"
    for (const SpanAggregate &row : rows) {
        if (!waiting(row)) {
            self_total += row.selfSec;
            self_cpu_total += row.selfCpuSec;
        }
        name_width = std::max(name_width, row.name.size());
    }
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-*s %10s %12s %12s %7s\n",
                  static_cast<int>(name_width), "span", "count", "total(s)",
                  "self(s)", "self%");
    out += line;
    for (const SpanAggregate &row : rows) {
        char pct[16] = "wait";
        if (!waiting(row))
            std::snprintf(pct, sizeof(pct), "%6.2f%%",
                          self_total > 0.0
                              ? 100.0 * row.selfSec / self_total
                              : 0.0);
        std::snprintf(line, sizeof(line),
                      "%-*s %10" PRIu64 " %12.6f %12.6f %7s\n",
                      static_cast<int>(name_width), row.name.c_str(),
                      row.count, row.totalSec, row.selfSec, pct);
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "wall_s %.3f  cpu_s %.3f  work_self_s %.3f  "
                  "work/cpu %.1f%%\n",
                  host.wallSec, host.cpuSec, self_cpu_total,
                  host.cpuSec > 0.0 ? 100.0 * self_cpu_total / host.cpuSec
                                    : 0.0);
    out += line;
    return out;
}

namespace {

/** Integer nanoseconds as microseconds with exactly three decimals. */
std::string
micros(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                  static_cast<unsigned>(ns % 1000));
    return buf;
}

}  // namespace

json::Writer &
beginChromeEvent(json::Writer &w, std::string &out)
{
    if (w.separate())
        out += '\n';
    return w.beginObject();
}

void
appendHostSpanChromeEvents(json::Writer &w, std::string &out,
                           const std::vector<SpanProfiler::ThreadSpans> &threads,
                           int pid)
{
    for (const auto &thread : threads) {
        beginChromeEvent(w, out).key("ph").string("M");
        w.key("pid").integer(static_cast<std::uint64_t>(pid));
        w.key("tid").integer(thread.tid);
        w.key("name").string("thread_name");
        w.key("args").beginObject().key("name").string("host:" + thread.name);
        w.endObject().endObject();
        for (const SpanRecord &record : thread.spans) {
            beginChromeEvent(w, out).key("ph").string("X");
            w.key("pid").integer(static_cast<std::uint64_t>(pid));
            w.key("tid").integer(thread.tid);
            w.key("ts").raw(micros(record.startNs));
            w.key("dur").raw(micros(record.endNs - record.startNs));
            w.key("name").string(record.name);
            w.key("args").beginObject().key("depth").integer(record.depth);
            for (std::uint8_t c = 0; c < record.counterCount; ++c)
                w.key(record.counters[c].key)
                    .integer(record.counters[c].value);
            w.endObject().endObject();
        }
    }
}

std::string
renderHostSpanChromeTrace(const std::vector<SpanProfiler::ThreadSpans> &threads)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().key("traceEvents").beginArray();
    out += '\n';
    appendHostSpanChromeEvents(w, out, threads, /*pid=*/2);
    out += '\n';
    w.endArray().key("displayTimeUnit").string("ms").endObject();
    out += '\n';
    return out;
}

}  // namespace amnesiac
