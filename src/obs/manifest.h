/**
 * @file
 * Run provenance: a manifest attached to every BenchmarkResult that
 * records what produced it (config digest, seed, worker counts) and
 * what it cost (wall-clock per pipeline phase, thread-pool
 * utilization). The digest covers every field of ExperimentConfig that
 * affects simulation *content* — and deliberately excludes `jobs`,
 * which only affects scheduling: two manifests with equal digests claim
 * bit-identical results, which is exactly the pipeline's determinism
 * contract.
 */

#ifndef AMNESIAC_OBS_MANIFEST_H
#define AMNESIAC_OBS_MANIFEST_H

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.h"
#include "util/bytes.h"  // fnv1aDigest: the config digest's hash
#include "util/thread_pool.h"

namespace amnesiac {

/** Wall-clock seconds spent in each pipeline phase of one workload. */
struct PhaseTimes
{
    /** Classic (baseline) simulation; nonzero only on the pipelined
     * backend. On the scalar backend the classic stats are the
     * compile's profiling run, computed or read from the artifact
     * cache, and no classic run is made. */
    double classicSec = 0.0;
    double compileSec = 0.0;   ///< both compiles (prob + oracle sets)
    double analysisSec = 0.0;  ///< static analysis share of compileSec
    double profileSec = 0.0;   ///< dependence-profiling share of compileSec
    double simulateSec = 0.0;  ///< all amnesic policy simulations
    double totalSec = 0.0;     ///< end-to-end, including merge overhead
};

/** Thread-pool utilization over one run. */
struct PoolStats
{
    std::uint64_t jobsExecuted = 0;
    double queueWaitSec = 0.0;   ///< summed enqueue → start latency
    double workerBusySec = 0.0;  ///< summed task execution time
    /** Queue-wait distribution (bucket layout from util/thread_pool.h;
     * feeds the amnesiac_threadpool_queue_wait_seconds histogram).
     * Carried in-memory to the metrics export, not rendered in the
     * manifest JSON. */
    std::array<std::uint64_t, kQueueWaitBucketCount> queueWaitBuckets{};
};

/** Provenance + cost of one BenchmarkResult. */
struct RunManifest
{
    /** FNV-1a over the canonical config string (excludes jobs). */
    std::uint64_t configDigest = 0;
    std::uint64_t seed = 0;
    unsigned jobsRequested = 0;
    unsigned jobsEffective = 1;
    /** Candidates discarded by the static pruner (both compiles).
     * Deterministic: a pure function of program + config, never of
     * scheduling — rendered inside the determinism-witness prefix. */
    std::uint64_t prunedCandidates = 0;
    /** Compiles served from the artifact cache this run (0–2: the
     * probabilistic and oracle sets cache independently). Depends on
     * disk state, so rendered outside the witness prefix. */
    unsigned cacheHits = 0;
    /** Compiles that probed a configured cache and found nothing (the
     * complement of cacheHits; 0 when no cache is configured). */
    unsigned cacheMisses = 0;
    PhaseTimes phases;
    /** Per-pass wall-clock breakdown of compileSec (both slice sets,
     * summed by pass name in first-appearance order; filled from the
     * compiler's span laps, gap-free so the entries sum to compileSec
     * within timer noise). Empty when every compile was a cache hit. */
    std::vector<PassTime> passes;
    /** Work counters of this run's dependence-profiling pass (the
     * `pass:profile` span's). Zero when every compile was a cache hit.
     * Carried in memory to the metrics export, like the pool's
     * queue-wait buckets; not rendered in the manifest JSON. */
    ProfilerCounters profiler;
    PoolStats pool;
};

/**
 * One JSON object. Deterministic fields (digest, seed, jobs) come
 * first so a byte-prefix of the render can serve as a determinism
 * witness; wall-clock fields follow.
 */
std::string renderManifestJson(const RunManifest &manifest);

}  // namespace amnesiac

#endif  // AMNESIAC_OBS_MANIFEST_H
