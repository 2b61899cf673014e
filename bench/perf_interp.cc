/**
 * @file
 * Simulator-throughput microbenchmark: times the three hot phases of
 * the pipeline — classic interpretation, amnesic interpretation, and
 * the profiling pass — over the workload registry and emits a
 * machine-readable BENCH_interp.json so the simulator's own performance
 * is tracked across PRs (the paper's 33-benchmark sweeps are only as
 * affordable as this interpreter is fast).
 *
 * Methodology: each phase is run `--repeats` times on a freshly
 * constructed machine and the *best* wall-clock is reported (minimum =
 * least-noise estimator for a deterministic, allocation-stable loop).
 * Compilation is untimed here; its cost is visible through the
 * RunManifest phase times (also included per workload).
 *
 *   perf_interp [--quick] [--repeats <n>] [--out <path>] [--policy <p>]
 *
 * Exit status is 0 unless a simulation crashes — the CI perf-smoke job
 * gates only on "runs and emits valid JSON", never on thresholds (perf
 * numbers are tracked as artifacts, not asserted, to keep CI unflaky).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"
#include "core/compiler.h"
#include "isa/serialize.h"
#include "obs/manifest.h"
#include "profile/profiler.h"
#include "report/experiment.h"
#include "sim/machine.h"
#include "util/args.h"
#include "util/json.h"
#include "workloads/registry.h"

namespace {

using amnesiac::AmnesicCompiler;
using amnesiac::AmnesicConfig;
using amnesiac::AmnesicMachine;
using amnesiac::CompileResult;
using amnesiac::EnergyModel;
using amnesiac::ExperimentConfig;
using amnesiac::ExperimentRunner;
using amnesiac::HierarchyConfig;
using amnesiac::Machine;
using amnesiac::Policy;
using amnesiac::Profiler;
using amnesiac::serializeProgram;
using amnesiac::Workload;

using WallClock = std::chrono::steady_clock;

double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

/** One timed phase: dynamic work done and the best-of-N wall-clock. */
struct PhaseResult
{
    std::uint64_t instrs = 0;
    double bestSec = 0.0;

    double nsPerInstr() const
    {
        return instrs == 0 ? 0.0 : bestSec * 1e9 / static_cast<double>(instrs);
    }
    double instrsPerSec() const
    {
        return bestSec <= 0.0 ? 0.0
                              : static_cast<double>(instrs) / bestSec;
    }
};

struct WorkloadResult
{
    std::string name;
    PhaseResult classic;
    PhaseResult amnesic;
    PhaseResult profile;
    std::uint64_t productions = 0;  ///< profiling-phase producer nodes
    std::uint64_t arenaNodes = 0;   ///< profiling-phase arena high-water
    std::uint64_t walkNodes = 0;    ///< profiling-phase tree-walk visits
    std::uint64_t operandProbes = 0;  ///< profiling-phase operand probes
    std::string manifestJson;       ///< RunManifest of one pipeline run
    double compilePrunedSec = 0.0;    ///< best compile, static prune on
    double compileUnprunedSec = 0.0;  ///< best compile, static prune off
    std::uint64_t prunedCandidates = 0;
};

/** `%.*f`: the BENCH files keep fixed decimals per field. */
std::string
fixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

void
appendPhaseJson(amnesiac::json::Writer &w, const char *key,
                const PhaseResult &p)
{
    w.key(key).beginObject();
    w.key("instrs").integer(p.instrs);
    w.key("bestSec").raw(fixed(p.bestSec, 9));
    w.key("nsPerInstr").raw(fixed(p.nsPerInstr(), 4));
    w.key("instrsPerSec").raw(fixed(p.instrsPerSec(), 1));
    w.endObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int repeats = 3;
    std::string out_path = "BENCH_interp.json";
    Policy policy = Policy::FLC;

    amnesiac::ArgReader reader(
        argc, argv, "[--quick] [--repeats <n>] [--out <path>] [--policy <p>]");
    while (reader.next()) {
        const std::string &flag = reader.arg();
        if (flag == "--quick") {
            quick = true;
        } else if (flag == "--repeats") {
            // 0 still means one repeat: every phase is timed at least once.
            repeats = std::max(1, static_cast<int>(reader.number(
                                      std::numeric_limits<int>::max())));
        } else if (flag == "--out") {
            out_path = reader.value();
        } else if (flag == "--policy") {
            const std::string name = reader.value();
            if (!amnesiac::parsePolicy(name, policy))
                reader.fail("unknown policy '" + name + "'");
        } else {
            reader.unknown();
        }
    }

    ExperimentConfig config;
    config.jobs = 1;  // phase timings must not contend with each other
    EnergyModel energy(config.energy);
    const HierarchyConfig &hierarchy = config.hierarchy;

    std::vector<std::string> names = quick
        ? std::vector<std::string>{"mcf", "is", "bfs"}
        : amnesiac::registeredWorkloads();

    std::vector<WorkloadResult> results;
    for (const std::string &name : names) {
        std::fprintf(stderr, "  [perf] %s...\n", name.c_str());
        Workload workload = amnesiac::makeWorkload(name, 1);
        WorkloadResult r;
        r.name = name;

        // --- classic interpretation (no observer: the fast path) ---
        for (int rep = 0; rep < repeats; ++rep) {
            Machine machine(workload.program, energy, hierarchy);
            WallClock::time_point t0 = WallClock::now();
            machine.run(config.runLimit);
            double sec = secondsSince(t0);
            if (rep == 0 || sec < r.classic.bestSec)
                r.classic.bestSec = sec;
            r.classic.instrs = machine.stats().dynInstrs;
        }

        // --- profiling pass (classic run + dependence tracking) ---
        for (int rep = 0; rep < repeats; ++rep) {
            Profiler profiler;
            Machine machine(workload.program, energy, hierarchy);
            machine.setObserver(&profiler);
            WallClock::time_point t0 = WallClock::now();
            machine.run(config.runLimit);
            double sec = secondsSince(t0);
            if (rep == 0 || sec < r.profile.bestSec)
                r.profile.bestSec = sec;
            r.profile.instrs = machine.stats().dynInstrs;
            r.productions = profiler.tracker().productions();
            r.arenaNodes = profiler.tracker().arenaSize();
            r.walkNodes = profiler.walkNodes();
            r.operandProbes = profiler.operandProbes();
        }

        // --- amnesic interpretation (compile once, untimed) ---
        {
            amnesiac::CompilerConfig compiler_config = config.compiler;
            compiler_config.runLimit = config.runLimit;
            compiler_config.oracleSet = amnesiac::needsOracleSet(policy);
            AmnesicCompiler compiler(energy, hierarchy, compiler_config);
            CompileResult compiled = compiler.compile(workload.program);
            AmnesicConfig amnesic = config.amnesic;
            amnesic.policy = policy;
            for (int rep = 0; rep < repeats; ++rep) {
                AmnesicMachine machine(compiled.program, energy, amnesic,
                                       hierarchy);
                WallClock::time_point t0 = WallClock::now();
                machine.run(config.runLimit);
                double sec = secondsSince(t0);
                if (rep == 0 || sec < r.amnesic.bestSec)
                    r.amnesic.bestSec = sec;
                r.amnesic.instrs = machine.stats().dynInstrs;
            }
        }

        // --- compile pass: static prune on vs off ---
        // Times both configurations and holds the pruner to its
        // conservative contract: the serialized binaries must be
        // byte-identical, or the whole benchmark fails (CI gates on
        // this exit status, not on the timing numbers).
        {
            amnesiac::CompilerConfig pruned_config = config.compiler;
            pruned_config.runLimit = config.runLimit;
            amnesiac::CompilerConfig unpruned_config = pruned_config;
            unpruned_config.prune = false;
            std::vector<std::uint8_t> pruned_bytes;
            std::vector<std::uint8_t> unpruned_bytes;
            for (int rep = 0; rep < repeats; ++rep) {
                AmnesicCompiler compiler(energy, hierarchy, pruned_config);
                WallClock::time_point t0 = WallClock::now();
                CompileResult compiled = compiler.compile(workload.program);
                double sec = secondsSince(t0);
                if (rep == 0 || sec < r.compilePrunedSec)
                    r.compilePrunedSec = sec;
                r.prunedCandidates = compiled.stats.prunedSites +
                                     compiled.stats.prunedProductions;
                pruned_bytes = serializeProgram(compiled.program);
            }
            for (int rep = 0; rep < repeats; ++rep) {
                AmnesicCompiler compiler(energy, hierarchy,
                                         unpruned_config);
                WallClock::time_point t0 = WallClock::now();
                CompileResult compiled = compiler.compile(workload.program);
                double sec = secondsSince(t0);
                if (rep == 0 || sec < r.compileUnprunedSec)
                    r.compileUnprunedSec = sec;
                unpruned_bytes = serializeProgram(compiled.program);
            }
            if (pruned_bytes != unpruned_bytes) {
                std::fprintf(stderr,
                             "%s: static prune changed the emitted "
                             "binary — conservative contract violated\n",
                             name.c_str());
                return 1;
            }
        }

        // --- one full pipeline run for the RunManifest phase times ---
        {
            ExperimentRunner runner(config);
            amnesiac::BenchmarkResult result =
                runner.run(workload, {policy});
            r.manifestJson = renderManifestJson(result.manifest);
        }
        results.push_back(std::move(r));
    }

    // --- render BENCH_interp.json ---
    // One top-level field per line as `"key": value`; each workload is
    // one compact object on a line of its own.
    std::string json;
    amnesiac::json::Writer w(json);
    auto field = [&](const char *name) -> amnesiac::json::Writer & {
        w.separate();
        json += "\n  ";
        w.key(name);
        json += ' ';
        return w;
    };
    w.beginObject();
    field("bench").string("perf_interp");
    field("version").integer(3);
    field("quick").boolean(quick);
    field("repeats").integer(static_cast<std::uint64_t>(repeats));
    field("policy").string(amnesiac::policyName(policy));
    field("workloads").beginArray();
    PhaseResult classic_total, amnesic_total, profile_total;
    double compile_pruned_total = 0.0;
    double compile_unpruned_total = 0.0;
    std::uint64_t pruned_candidates_total = 0;
    for (const WorkloadResult &r : results) {
        w.separate();
        json += "\n    ";
        w.beginObject().key("name").string(r.name);
        appendPhaseJson(w, "classic", r.classic);
        appendPhaseJson(w, "amnesic", r.amnesic);
        appendPhaseJson(w, "profile", r.profile);
        w.key("productions").integer(r.productions);
        w.key("arenaNodes").integer(r.arenaNodes);
        w.key("walkNodes").integer(r.walkNodes);
        w.key("operandProbes").integer(r.operandProbes);
        w.key("compile").beginObject();
        w.key("prunedSec").raw(fixed(r.compilePrunedSec, 9));
        w.key("unprunedSec").raw(fixed(r.compileUnprunedSec, 9));
        w.key("prunedCandidates").integer(r.prunedCandidates);
        w.key("byteIdentical").boolean(true);
        w.endObject();
        w.key("manifest").raw(r.manifestJson);
        w.endObject();

        classic_total.instrs += r.classic.instrs;
        classic_total.bestSec += r.classic.bestSec;
        amnesic_total.instrs += r.amnesic.instrs;
        amnesic_total.bestSec += r.amnesic.bestSec;
        profile_total.instrs += r.profile.instrs;
        profile_total.bestSec += r.profile.bestSec;
        compile_pruned_total += r.compilePrunedSec;
        compile_unpruned_total += r.compileUnprunedSec;
        pruned_candidates_total += r.prunedCandidates;
    }
    json += "\n  ";
    w.endArray();
    field("totals").beginObject();
    appendPhaseJson(w, "classic", classic_total);
    appendPhaseJson(w, "amnesic", amnesic_total);
    appendPhaseJson(w, "profile", profile_total);
    w.key("compile").beginObject();
    w.key("prunedSec").raw(fixed(compile_pruned_total, 9));
    w.key("unprunedSec").raw(fixed(compile_unpruned_total, 9));
    w.key("prunedCandidates").integer(pruned_candidates_total);
    w.endObject().endObject();
    json += '\n';
    w.endObject();
    json += '\n';

    std::ofstream out(out_path, std::ios::binary);
    out << json;
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
        return 1;
    }

    std::printf("phase     instrs/sec   ns/instr  (aggregate best-of-%d)\n",
                repeats);
    std::printf("classic   %10.0f   %8.3f\n", classic_total.instrsPerSec(),
                classic_total.nsPerInstr());
    std::printf("amnesic   %10.0f   %8.3f\n", amnesic_total.instrsPerSec(),
                amnesic_total.nsPerInstr());
    std::printf("profile   %10.0f   %8.3f\n", profile_total.instrsPerSec(),
                profile_total.nsPerInstr());
    double prune_delta_pct =
        compile_unpruned_total <= 0.0
            ? 0.0
            : 100.0 * (compile_pruned_total - compile_unpruned_total) /
                  compile_unpruned_total;
    std::printf("compile   %.3fs pruned vs %.3fs unpruned (%+.1f%%), "
                "%" PRIu64 " candidates pruned, outputs byte-identical\n",
                compile_pruned_total, compile_unpruned_total,
                prune_delta_pct, pruned_candidates_total);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
