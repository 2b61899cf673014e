#include "paperbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "analysis/analyzer.h"
#include "analysis/domains.h"
#include "analysis/prune.h"
#include "core/amnesic_machine.h"
#include "isa/serialize.h"
#include "obs/manifest.h"
#include "profile/profiler.h"
#include "report/artifact_cache.h"
#include "sim/machine.h"
#include "util/thread_pool.h"
#include "workloads/paper_suite.h"

namespace paperbench {

using namespace amnesiac;

namespace {

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Names here are benchmark-chosen identifiers; escape quotes and
 * backslashes anyway so the output is always valid JSON. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

// -------------------------------------------------------------- digests

namespace {

/** Visit every SimStats field in declaration order. */
template <typename Visit>
void
forEachStatsField(const SimStats &s, Visit &&visit)
{
    visit("dynInstrs", s.dynInstrs);
    visit("dynLoads", s.dynLoads);
    visit("dynStores", s.dynStores);
    visit("cycles", s.cycles);
    visit("l2WritebackInstalls", s.l2WritebackInstalls);
    visit("energy.loadNj", s.energy.loadNj);
    visit("energy.storeNj", s.energy.storeNj);
    visit("energy.nonMemNj", s.energy.nonMemNj);
    visit("energy.histReadNj", s.energy.histReadNj);
    for (std::size_t i = 0; i < s.perCategory.size(); ++i)
        visit("perCategory." + std::to_string(i), s.perCategory[i]);
    visit("rcmpSeen", s.rcmpSeen);
    visit("recomputations", s.recomputations);
    visit("fallbackLoads", s.fallbackLoads);
    visit("recomputedInstrs", s.recomputedInstrs);
    visit("histReads", s.histReads);
    visit("histWrites", s.histWrites);
    visit("histOverflows", s.histOverflows);
    visit("recomputeChecked", s.recomputeChecked);
    visit("recomputeMismatches", s.recomputeMismatches);
    visit("sfileAborts", s.sfileAborts);
    visit("histMissFallbacks", s.histMissFallbacks);
    for (std::size_t i = 0; i < s.swappedByLevel.size(); ++i)
        visit("swappedByLevel." + std::to_string(i), s.swappedByLevel[i]);
    for (std::size_t i = 0; i < s.fallbackByLevel.size(); ++i)
        visit("fallbackByLevel." + std::to_string(i), s.fallbackByLevel[i]);
    visit("loadUseStalls", s.loadUseStalls);
    visit("loadUseStallCycles", s.loadUseStallCycles);
    visit("controlBubbles", s.controlBubbles);
    visit("controlBubbleCycles", s.controlBubbleCycles);
    visit("mispredictFlushes", s.mispredictFlushes);
    visit("mispredictFlushCycles", s.mispredictFlushCycles);
    visit("predictorHits", s.predictorHits);
    visit("predictorMisses", s.predictorMisses);
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

std::string
amnbBytes(const Program &program)
{
    const std::vector<std::uint8_t> bytes = serializeProgram(program);
    return std::string(bytes.begin(), bytes.end());
}

}  // namespace

std::string
canonicalStats(const SimStats &stats)
{
    std::string out;
    forEachStatsField(stats, [&out](const std::string &name, auto value) {
        out += name + "=";
        if constexpr (std::is_floating_point_v<decltype(value)>)
            out += jsonNumber(value);
        else
            out += std::to_string(value);
        out += ";";
    });
    return out;
}

std::size_t
canonicalStatsWords()
{
    std::size_t words = 0;
    forEachStatsField(SimStats{}, [&words](const std::string &, auto value) {
        static_assert(sizeof(value) == 8);
        ++words;
    });
    return words;
}

std::vector<Cell>
paperCells(const std::vector<BenchmarkResult> &results)
{
    std::vector<Cell> cells;
    for (const BenchmarkResult &result : results) {
        const std::string prob = amnbBytes(result.compiled.program);
        const std::string oracle = amnbBytes(result.oracleCompiled.program);
        Cell classic;
        classic.id = result.name + "/classic";
        classic.digest = hex64(fnv1aDigest(canonicalStats(result.classic) +
                                           "prob=" + prob +
                                           "oracle=" + oracle));
        cells.push_back(classic);
        for (const PolicyOutcome &outcome : result.policies) {
            Cell cell;
            cell.id = result.name + "/" + std::string(policyName(outcome.policy));
            cell.digest = hex64(fnv1aDigest(
                canonicalStats(outcome.stats) + "amnb=" +
                (needsOracleSet(outcome.policy) ? oracle : prob)));
            cell.ok = outcome.stats.recomputeMismatches == 0;
            cells.push_back(cell);
        }
    }
    return cells;
}

Cell
breakevenCell(const std::string &mimic, double value)
{
    Cell cell;
    cell.id = mimic + "/breakeven";
    cell.digest = jsonNumber(value);
    return cell;
}

std::string
overallDigest(const std::vector<Cell> &cells)
{
    std::string text;
    for (const Cell &cell : cells)
        text += cell.id + "=" + cell.digest + "\n";
    return hex64(fnv1aDigest(text));
}

// ----------------------------------------------------------------- pass

unsigned
passJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

namespace {

/**
 * The order the breakeven pass hands mimics to its workers. sx's
 * compile holds ~1.1 GB of profiler state, most of the pass's peak
 * memory, so it starts first; the mimics with the smallest compiles
 * fill the other workers while it runs, and the memory-heavy fs, fe
 * and cg compile only after sx's profile is freed. In suite order,
 * cg's compile overlapped sx's on some passes and not others, and the
 * peak RSS of a pass jumped between ~1.2 GB and ~1.6 GB; in this order
 * six passes stayed within 1% of each other (4-core Xeon VM). Cells
 * stay in suite order.
 */
const std::vector<std::string> kBreakevenSchedule = {
    "sx", "bfs", "is", "mcf", "bp", "rt", "ca", "sr", "fs", "fe", "cg",
};

/** Indices into `inputs` in kBreakevenSchedule order. */
std::vector<std::size_t>
breakevenOrder(const std::vector<Workload> &inputs)
{
    std::vector<std::size_t> order;
    for (const std::string &name : kBreakevenSchedule)
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if (inputs[i].name == name)
                order.push_back(i);
    if (order.size() != inputs.size())
        throw std::logic_error("breakeven schedule does not cover the suite");
    return order;
}

/** Library defaults, `jobs` workers, and the cache pinned to
 * `cacheDir`. */
ExperimentConfig
passConfig(const PassOptions &options, unsigned jobs)
{
    ExperimentConfig config;
    config.jobs = jobs;
    config.seed = options.seed;
    // An explicit directory, or caching off: AMNESIAC_CACHE_DIR is
    // never consulted.
    config.cacheDir = options.cacheDir;
    config.noCache = options.cacheDir.empty();
    return config;
}

double
secondsOf(const timeval &tv)
{
    return tv.tv_sec + tv.tv_usec * 1e-6;
}

rusage
selfUsage()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer numbers the pipeline's own manifests report (all zero on
 * breakeven, which runs no runMany). */
void
manifestMetrics(const std::vector<BenchmarkResult> &results, unsigned jobs,
                std::map<std::string, double> &layer)
{
    for (const char *sum :
         {"report.classic_s", "report.simulate_s", "core.compile_s",
          "profile.pipeline_s", "analysis.s", "report.cache_hits",
          "report.cache_misses", "core.dryrun_s", "core.select_s",
          "core.rewrite_s"})
        layer[sum] = 0.0;
    double prepare_max = 0.0;
    for (const BenchmarkResult &result : results) {
        const RunManifest &m = result.manifest;
        prepare_max = std::max(prepare_max,
                               m.phases.classicSec + m.phases.compileSec);
        layer["report.classic_s"] += m.phases.classicSec;
        layer["report.simulate_s"] += m.phases.simulateSec;
        layer["core.compile_s"] += m.phases.compileSec;
        layer["profile.pipeline_s"] += m.phases.profileSec;
        layer["analysis.s"] += m.phases.analysisSec;
        layer["report.cache_hits"] += m.cacheHits;
        layer["report.cache_misses"] += m.cacheMisses;
        for (const PassTime &pass : m.passes)
            if (pass.name == "dryrun" || pass.name == "select" ||
                pass.name == "rewrite")
                layer["core." + pass.name + "_s"] += pass.sec;
    }
    layer["report.prepare_max_s"] = prepare_max;
    // runMany shares one pool, so every manifest holds its totals.
    const RunManifest m =
        results.empty() ? RunManifest{} : results.front().manifest;
    layer["util.pool_busy_s"] = m.pool.workerBusySec;
    layer["util.pool_queue_wait_s"] = m.pool.queueWaitSec;
    layer["util.pool_utilization"] =
        ratio(m.pool.workerBusySec, jobs * m.phases.totalSec);
}

/**
 * Layer probes on one mimic: standalone public calls, each in a host
 * span named after its layer with the mimic as detail, and their
 * counts recorded as counters of the same span.
 */
void
probeMimic(const Workload &workload, const ExperimentConfig &config,
           const std::string &probe_dir)
{
    const std::string &id = workload.name;
    ScopedSpan probe("probe", id);
    const EnergyModel energy(config.energy);

    {
        ScopedSpan span("sim.classic", id);
        Machine machine(workload.program, energy, config.hierarchy,
                        config.timing);
        machine.run(config.runLimit);
        span.counter("instrs", machine.stats().dynInstrs);
        // The modelled cache counts of that run (a span holds at most
        // four counters).
        ScopedSpan cache("mem.cache", id);
        const CacheStats &l1 = machine.hierarchy().l1().stats();
        const CacheStats &l2 = machine.hierarchy().l2().stats();
        cache.counter("l1_misses", l1.misses);
        cache.counter("l1_accesses", l1.accesses());
        cache.counter("l2_misses", l2.misses);
        cache.counter("l2_accesses", l2.accesses());
    }

    // The two compiles runMany performs: the probabilistic slice set
    // (Compiler, FLC, LLC and C-Oracle run it; it is also the one
    // breakEvenScale compiles for C-Oracle) and the oracle set.
    CompilerConfig prob = config.compiler;
    prob.runLimit = config.runLimit;
    prob.oracleSet = false;
    CompilerConfig oracle = prob;
    oracle.oracleSet = true;

    ProfilerConfig prof_config;
    {
        // The prune masks the probabilistic compile profiles under.
        ScopedSpan span("analysis.prune", id);
        DataflowFacts facts(workload.program);
        StaticPruneOptions options;
        options.minSiteCount = prob.minSiteCount;
        options.profitabilityMargin = prob.profitabilityMargin;
        options.budgetMargin = prob.builder.budgetMargin;
        options.oracleSet = prob.oracleSet;
        options.energy = &energy;
        StaticPruneResult pruned =
            computeStaticPrune(workload.program, facts, options);
        span.counter("pruned", pruned.prunedSites + pruned.prunedProductions);
        prof_config.skipSiteAnalysis = std::move(pruned.skipSiteAnalysis);
        prof_config.opaqueProduction = std::move(pruned.opaqueProduction);
    }
    {
        ScopedSpan span("profile", id);
        Profiler profiler(prof_config);
        Machine machine(workload.program, energy, config.hierarchy);
        machine.setObserver(&profiler);
        machine.run(config.runLimit);
        span.counter("instrs", machine.stats().dynInstrs);
        span.counter("productions", profiler.tracker().productions());
        span.counter("arena_nodes", profiler.tracker().arenaSize());
        span.counter("sites", profiler.sites().size());
    }

    CompileResult prob_compiled;
    {
        ScopedSpan span("core.compile_prob", id);
        prob_compiled = AmnesicCompiler(energy, config.hierarchy, prob)
                            .compile(workload.program);
    }
    CompileResult oracle_compiled;
    {
        ScopedSpan span("core.compile_oracle", id);
        oracle_compiled = AmnesicCompiler(energy, config.hierarchy, oracle)
                              .compile(workload.program);
    }

    AnalyzerOptions lint;
    lint.sfileCapacity = config.amnesic.sfileCapacity;
    lint.histCapacity = config.amnesic.histCapacity;
    lint.energy = config.energy;
    const ArtifactCache cache(probe_dir + "/" + id);
    for (const auto &[compiled, compiler] :
         {std::pair{&prob_compiled, &prob},
          std::pair{&oracle_compiled, &oracle}}) {
        {
            ScopedSpan span("analysis.gate", id);
            span.counter("errors",
                         analyzeProgram(compiled->program, lint).errorCount());
        }
        const std::uint64_t key = ArtifactCache::key(
            workload.program, config.energy, config.hierarchy, *compiler);
        const std::vector<std::uint8_t> amnb =
            serializeProgram(compiled->program);
        {
            ScopedSpan span("report.cache_store", id);
            cache.store(key, *compiled);
            span.counter("amnb_bytes", amnb.size());
        }
        {
            ScopedSpan span("report.cache_load", id);
            std::optional<CompileResult> loaded = cache.load(key);
            span.counter("errors",
                         !loaded || serializeProgram(loaded->program) != amnb);
        }
    }

    // Every policy, on the binary runMany gives it.
    for (Policy policy : kAllPolicies) {
        ScopedSpan span("core.amnesic", id, policyName(policy));
        AmnesicConfig amnesic = config.amnesic;
        amnesic.policy = policy;
        AmnesicMachine machine(needsOracleSet(policy)
                                   ? oracle_compiled.program
                                   : prob_compiled.program,
                               energy, amnesic, config.hierarchy,
                               config.timing);
        machine.run(config.runLimit);
        span.counter("instrs", machine.stats().dynInstrs);
        span.counter("rcmp_seen", machine.stats().rcmpSeen);
        span.counter("recomputations", machine.stats().recomputations);
    }
}

/** The name of a span record up to its first space (the layer). */
std::string_view
baseName(const SpanRecord &record)
{
    const std::string_view name(record.name);
    return name.substr(0, name.find(' '));
}

/** Seconds and counter `key` of every span named `name`, summed. */
struct SpanSum
{
    double seconds = 0.0;
    double count = 0.0;
};

SpanSum
spanSum(const std::vector<SpanProfiler::ThreadSpans> &threads,
        std::string_view name, std::string_view key = {})
{
    SpanSum sum;
    for (const SpanProfiler::ThreadSpans &thread : threads)
        for (const SpanRecord &record : thread.spans) {
            if (baseName(record) != name)
                continue;
            sum.seconds += record.seconds();
            for (std::uint8_t c = 0; c < record.counterCount; ++c)
                if (key == record.counters[c].key)
                    sum.count += record.counters[c].value;
        }
    return sum;
}

void
probeMetrics(const std::vector<SpanProfiler::ThreadSpans> &spans,
             std::map<std::string, double> &layer)
{
    auto seconds = [&spans](const char *name) {
        return spanSum(spans, name).seconds;
    };
    auto count = [&spans](const char *name, const char *key) {
        return spanSum(spans, name, key).count;
    };
    const double classic_instrs = count("sim.classic", "instrs");
    layer["sim.classic_instrs"] = classic_instrs;
    layer["sim.classic_ns_per_instr"] =
        ratio(seconds("sim.classic") * 1e9, classic_instrs);
    const double amnesic_instrs = count("core.amnesic", "instrs");
    layer["core.amnesic_instrs"] = amnesic_instrs;
    layer["core.amnesic_ns_per_instr"] =
        ratio(seconds("core.amnesic") * 1e9, amnesic_instrs);
    const double profile_instrs = count("profile", "instrs");
    layer["profile.instrs"] = profile_instrs;
    layer["profile.ns_per_instr"] =
        ratio(seconds("profile") * 1e9, profile_instrs);
    layer["profile.productions"] = count("profile", "productions");
    layer["profile.arena_nodes"] = count("profile", "arena_nodes");
    layer["profile.sites"] = count("profile", "sites");
    layer["analysis.prune_s"] = seconds("analysis.prune");
    layer["analysis.pruned_candidates"] = count("analysis.prune", "pruned");
    layer["analysis.gate_s"] = seconds("analysis.gate");
    layer["core.compile_prob_s"] = seconds("core.compile_prob");
    layer["core.compile_oracle_s"] = seconds("core.compile_oracle");
    layer["report.cache_store_s"] = seconds("report.cache_store");
    layer["report.cache_load_s"] = seconds("report.cache_load");
    layer["isa.amnb_bytes"] = count("report.cache_store", "amnb_bytes");
    layer["mem.l1_miss_ratio"] = ratio(count("mem.cache", "l1_misses"),
                                       count("mem.cache", "l1_accesses"));
    layer["mem.l2_miss_ratio"] = ratio(count("mem.cache", "l2_misses"),
                                       count("mem.cache", "l2_accesses"));
    layer["core.rcmp_fire_ratio"] =
        ratio(count("core.amnesic", "recomputations"),
              count("core.amnesic", "rcmp_seen"));
    layer["probe.errors"] = count("analysis.gate", "errors") +
                            count("report.cache_load", "errors");
}

}  // namespace

PassResult
runPass(const PassOptions &options)
{
    const bool breakeven = options.workload == "breakeven";
    if (!breakeven && options.workload != "paper-cold" &&
        options.workload != "paper-warm")
        throw std::invalid_argument("unknown workload " + options.workload);

    PassResult result;
    result.jobs = passJobs();
    const ExperimentConfig config = passConfig(options, result.jobs);

    const auto setup_start = std::chrono::steady_clock::now();
    std::vector<Workload> inputs;
    for (const std::string &name : paperBenchmarkNames())
        inputs.push_back(makePaperBenchmark(name, options.seed));
    result.setupSec = secondsSince(setup_start);

    std::vector<BenchmarkResult> results;
    std::vector<double> breakevens(inputs.size());
    result.breakevenSec.assign(breakeven ? inputs.size() : 0, 0.0);
    const rusage before = selfUsage();
    const auto start = std::chrono::steady_clock::now();
    if (breakeven) {
        const std::vector<std::size_t> order = breakevenOrder(inputs);
        ThreadPool pool(result.jobs);
        parallelFor(&pool, order.size(), [&](std::size_t k) {
            const std::size_t i = order[k];
            const auto call_start = std::chrono::steady_clock::now();
            breakevens[i] = breakEvenScale(inputs[i], config, Policy::COracle);
            result.breakevenSec[i] = secondsSince(call_start);
        });
    } else {
        ExperimentRunner runner(config);
        results = runner.runMany(
            inputs, {std::begin(kAllPolicies), std::end(kAllPolicies)});
    }
    result.wallSec = secondsSince(start);
    const rusage after = selfUsage();
    result.cpuSec = secondsOf(after.ru_utime) + secondsOf(after.ru_stime) -
                    secondsOf(before.ru_utime) - secondsOf(before.ru_stime);
    result.sysSec = secondsOf(after.ru_stime) - secondsOf(before.ru_stime);
    result.minorFaults =
        static_cast<double>(after.ru_minflt - before.ru_minflt);
    result.peakRssMb = after.ru_maxrss / 1024.0;  // ru_maxrss is in KiB

    if (breakeven) {
        for (std::size_t i = 0; i < inputs.size(); ++i)
            result.cells.push_back(breakevenCell(inputs[i].name, breakevens[i]));
    } else {
        result.cells = paperCells(results);
        for (const BenchmarkResult &r : results) {
            result.cacheHits += r.manifest.cacheHits;
            result.cacheMisses += r.manifest.cacheMisses;
        }
    }
    if (!options.traced)
        return result;

    // The probes run after the timed call and its getrusage reading,
    // and the host span profiler is on for them only.
    SpanProfiler &profiler = SpanProfiler::instance();
    profiler.enable();
    {
        ThreadPool pool(result.jobs);
        parallelFor(&pool, inputs.size(), [&](std::size_t i) {
            probeMimic(inputs[i], config, options.probeDir);
        });
    }
    profiler.disable();
    result.spans = profiler.collect();

    std::map<std::string, double> &layer = result.layer;
    manifestMetrics(results, result.jobs, layer);
    probeMetrics(result.spans, layer);
    layer["workloads.build_s"] = result.setupSec;
    layer["report.breakeven_s"] = 0.0;
    layer["report.breakeven_max_s"] = 0.0;
    for (double sec : result.breakevenSec) {
        layer["report.breakeven_s"] += sec;
        layer["report.breakeven_max_s"] =
            std::max(layer["report.breakeven_max_s"], sec);
    }
    layer["proc.minor_faults"] = result.minorFaults;
    layer["proc.sys_s"] = result.sysSec;
    return result;
}

std::string
renderPassJson(const PassOptions &options, const PassResult &result)
{
    std::string out = "{\"workload\": " + jsonString(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"traced\": " + (options.traced ? "true" : "false");
    auto field = [&out](const char *key, double value) {
        out += std::string(", \"") + key + "\": " + jsonNumber(value);
    };
    field("setup_s", result.setupSec);
    field("wall_s", result.wallSec);
    field("cpu_s", result.cpuSec);
    field("peak_rss_mb", result.peakRssMb);
    field("cache_hits", result.cacheHits);
    field("cache_misses", result.cacheMisses);
    out += ", \"fingerprint\": {\"jobs\": " + std::to_string(result.jobs) +
           ", \"compiler\": " + jsonString(PAPERBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(PAPERBENCH_BUILD_TYPE) + "}";
    out += ", \"digest\": " + jsonString(overallDigest(result.cells));
    out += ", \"cells\": [";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const Cell &cell = result.cells[i];
        out += std::string(i ? ", " : "") + "{\"id\": " + jsonString(cell.id) +
               ", \"digest\": " + jsonString(cell.digest) +
               ", \"ok\": " + (cell.ok ? "true" : "false") + "}";
    }
    out += "], \"layer\": {";
    bool first = true;
    for (const auto &[name, value] : result.layer) {
        out += (first ? "" : ", ") + jsonString(name) + ": " + jsonNumber(value);
        first = false;
    }
    return out + "}}";
}

}  // namespace paperbench
