/**
 * @file
 * Paper-regeneration benchmark: one timed pass of a workload over the
 * 11 paper mimics, the output digests that check it, and the layer
 * probes of a traced pass. Drives the library only through its public
 * entry points (ExperimentRunner::runMany, breakEvenScale,
 * AmnesicCompiler, Machine/AmnesicMachine, Profiler, computeStaticPrune,
 * ArtifactCache, serializeProgram); the probes record into the
 * library's own host span profiler (obs/span.h).
 */

#ifndef PAPERBENCH_PAPERBENCH_H
#define PAPERBENCH_PAPERBENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "report/experiment.h"

namespace paperbench {

// -------------------------------------------------------------- digests

/** Every SimStats field as "name=value;" text, doubles in %.17g. */
std::string canonicalStats(const amnesiac::SimStats &stats);

/** The 8-byte SimStats words canonicalStats covers (selftest checks
 * this against sizeof(SimStats) so a new field cannot be missed). */
std::size_t canonicalStatsWords();

/** One checked output: a (mimic, policy) result or a break-even value. */
struct Cell
{
    std::string id;
    std::string digest;
    /** False when the pass itself saw the output go wrong (a shadow
     * check mismatch inside an amnesic simulation). */
    bool ok = true;
};

/** Cells of a runMany pass: per mimic, classic plus each policy. A
 * policy cell covers its SimStats and the .amnb of the binary it ran;
 * the classic cell covers classic SimStats and both binaries. */
std::vector<Cell> paperCells(
    const std::vector<amnesiac::BenchmarkResult> &results);

/** A break-even cell; its digest is the value printed with %.17g. */
Cell breakevenCell(const std::string &mimic, double value);

/** FNV-1a over every "id=digest" line, in order. */
std::string overallDigest(const std::vector<Cell> &cells);

// ----------------------------------------------------------------- pass

struct PassOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Artifact cache for the paper-* workloads (ignored otherwise). */
    std::string cacheDir;
    /** Scratch directory for the cache probes of a traced pass. */
    std::string probeDir;
    /** Run the layer probes after the pass. */
    bool traced = false;
};

/** Worker threads of a pass: min(4, hardware threads). */
unsigned passJobs();

struct PassResult
{
    unsigned jobs = 0;
    double setupSec = 0.0;
    double wallSec = 0.0;
    double cpuSec = 0.0;
    double sysSec = 0.0;
    double minorFaults = 0.0;
    double peakRssMb = 0.0;
    unsigned cacheHits = 0;
    unsigned cacheMisses = 0;
    /** Seconds of each breakEvenScale call (breakeven only). */
    std::vector<double> breakevenSec;
    std::vector<Cell> cells;
    /** Per-layer metrics (traced passes only), keyed by metric name. */
    std::map<std::string, double> layer;
    /** The probes' host spans (traced passes only). */
    std::vector<amnesiac::SpanProfiler::ThreadSpans> spans;
};

/** Generate the inputs, then run one timed pass of the workload. */
PassResult runPass(const PassOptions &options);

/** Render a pass result as one JSON object. */
std::string renderPassJson(const PassOptions &options,
                           const PassResult &result);

}  // namespace paperbench

#endif  // PAPERBENCH_PAPERBENCH_H
