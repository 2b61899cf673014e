#include "util/thread_pool.h"

#include <algorithm>

#include "obs/span.h"

namespace amnesiac {

unsigned
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    _workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _wakeWorker.notify_all();
    for (std::thread &worker : _workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _queue.emplace_back(std::move(task), Clock::now());
        ++_pending;
    }
    _wakeWorker.notify_one();
}

ThreadPool::Utilization
ThreadPool::utilization() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _utilization;
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _idle.wait(lock, [this] { return _pending == 0; });
}

void
ThreadPool::workerLoop()
{
    if (SpanProfiler::enabled())
        SpanProfiler::instance().setThreadName("pool-worker");
    for (;;) {
        std::function<void()> task;
        Clock::time_point start;
        Clock::time_point submitted;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wakeWorker.wait(lock,
                             [this] { return _stop || !_queue.empty(); });
            if (_queue.empty())
                return;  // _stop and fully drained
            start = Clock::now();
            task = std::move(_queue.front().first);
            submitted = _queue.front().second;
            const double wait_sec =
                std::chrono::duration<double>(start - submitted).count();
            _utilization.queueWaitSec += wait_sec;
            const auto bucket = std::min(
                kQueueWaitBucketCount - 1,
                static_cast<std::size_t>(
                    std::max(0.0, wait_sec) / kQueueWaitBucketSec));
            ++_utilization.queueWaitBuckets[bucket];
            _queue.pop_front();
        }
        if (SpanProfiler::enabled()) {
            SpanProfiler &profiler = SpanProfiler::instance();
            profiler.recordInterval("pool:queue-wait", profiler.toNs(submitted),
                                    profiler.toNs(start));
        }
        {
            ScopedSpan span("pool:task");
            task();
        }
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _utilization.workerBusySec +=
                std::chrono::duration<double>(Clock::now() - start).count();
            ++_utilization.jobsExecuted;
            if (--_pending == 0)
                _idle.notify_all();
        }
    }
}

void
parallelFor(ThreadPool *pool, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (!pool || pool->threadCount() <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        pool->submit([&body, i] { body(i); });
    // The caller only blocks from here on: record it as waiting, so the
    // flame table does not count it as the enclosing span's self time.
    ScopedSpan wait("pool:join-wait");
    pool->waitIdle();
}

}  // namespace amnesiac
