#include "core/compiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "analysis/prune.h"
#include "core/cost_model.h"
#include "core/dry_run.h"
#include "profile/profiler.h"
#include "profile/shard.h"
#include "util/logging.h"

namespace amnesiac {

AmnesicCompiler::AmnesicCompiler(const EnergyModel &energy,
                                 const HierarchyConfig &hierarchy,
                                 const CompilerConfig &config)
    : _energy(energy), _hierarchy(hierarchy), _config(config)
{
}

CompileResult
AmnesicCompiler::compile(const Program &input) const
{
    AMNESIAC_ASSERT(input.slices.empty() &&
                        input.codeEnd == input.code.size(),
                    "input binary already contains slices");

    using Clock = std::chrono::steady_clock;
    CompileResult result;

    // Top-level span covers the whole compile; per-pass spans nest
    // under it. The lap timer runs alongside: every named segment
    // records the wall time since the previous one, so the passTimes
    // table is gap-free and sums to the body's wall clock.
    ScopedSpan compile_span(_config.oracleSet ? "compile:oracle" : "compile",
                            input.name);
    auto lap_start = Clock::now();
    auto lap = [&](const char *name) {
        const auto now = Clock::now();
        const double sec =
            std::chrono::duration<double>(now - lap_start).count();
        result.passTimes.push_back({name, sec});
        lap_start = now;
        return sec;
    };

    // --- pass 0: static candidate pruning (fixpoint dataflow) ---
    // Rules the abstract interpretation can decide ahead of execution
    // (dead/cold sites, read-only inputs, slice-free value flows) are
    // decided here, so the dynamic profiler skips the per-instance tree
    // work for them. Conservative only: see CompilerConfig::prune.
    ProfilerConfig prof_config;
    if (_config.prune) {
        ScopedSpan span("pass:prune", input.name);
        DataflowFacts facts(input);
        StaticPruneOptions prune_opts;
        prune_opts.minSiteCount = _config.minSiteCount;
        prune_opts.profitabilityMargin = _config.profitabilityMargin;
        prune_opts.budgetMargin = _config.builder.budgetMargin;
        prune_opts.oracleSet = _config.oracleSet;
        prune_opts.energy = &_energy;
        StaticPruneResult pruned =
            computeStaticPrune(input, facts, prune_opts);
        result.stats.prunedSites = pruned.prunedSites;
        result.stats.prunedProductions = pruned.prunedProductions;
        prof_config.skipSiteAnalysis = std::move(pruned.skipSiteAnalysis);
        prof_config.opaqueProduction = std::move(pruned.opaqueProduction);
        span.counter("prunedSites", pruned.prunedSites);
        span.counter("prunedProds", pruned.prunedProductions);
    }
    result.analysisSec += lap("prune");

    // --- pass 1: dependence + residence profiling (§3.1.1, §4) ---
    // Serial by default; profileJobs != 1 shards the run over dynamic
    // instruction windows with a merge that reproduces the serial
    // profile exactly (src/profile/shard.h).
    std::unique_ptr<Profiler> serial_profiler;
    std::unique_ptr<ShardedProfile> sharded_profile;
    const ProfileSource *profile = nullptr;
    {
        ScopedSpan span("pass:profile", input.name);
        // Arena counters. A window tracker's sequence continues from
        // its seed, so the largest count is the run's productions; the
        // window arenas are separate and add up.
        std::uint64_t productions = 0;
        std::uint64_t arena_nodes = 0;
        std::uint64_t free_nodes = 0;
        auto count_arena = [&](const DepTracker &tracker) {
            productions = std::max(productions, tracker.productions());
            arena_nodes += tracker.arenaSize();
            free_nodes += tracker.freeCount();
        };
        if (_config.profileJobs == 1) {
            serial_profiler = std::make_unique<Profiler>(prof_config);
            Machine machine(input, _energy, _hierarchy);
            machine.setObserver(serial_profiler.get());
            machine.run(_config.runLimit);
            profile = serial_profiler.get();
            count_arena(serial_profiler->tracker());
        } else {
            ShardOptions shard_opts;
            shard_opts.jobs = _config.profileJobs;
            shard_opts.runLimit = _config.runLimit;
            sharded_profile = profileSharded(input, _energy, _hierarchy,
                                             prof_config, shard_opts);
            profile = sharded_profile.get();
            result.profileShards = sharded_profile->shards();
            for (unsigned k = 0; k < result.profileShards; ++k)
                count_arena(sharded_profile->tracker(k));
        }
        span.counter("shards", result.profileShards);
        span.counter("productions", productions);
        span.counter("arenaNodes", arena_nodes);
        span.counter("freeNodes", free_nodes);
    }
    result.profileSec = lap("profile");

    CostModel cost(_energy);
    SliceBuilder builder(_energy, _config.builder);

    ScopedSpan select_span("pass:select", input.name);

    // Global per-level residence distribution (the paper's Pr_Li model).
    std::array<double, kNumMemLevels> global_pr{};
    {
        std::array<std::uint64_t, kNumMemLevels> by_level{};
        std::uint64_t total = 0;
        for (const SiteProfile *site : profile->sites()) {
            for (std::size_t i = 0; i < kNumMemLevels; ++i)
                by_level[i] += site->byLevel[i];
            total += site->count;
        }
        for (std::size_t i = 0; i < kNumMemLevels; ++i)
            global_pr[i] = total == 0
                ? 0.0
                : static_cast<double>(by_level[i]) /
                      static_cast<double>(total);
    }

    std::vector<RSlice> candidates;
    for (const SiteProfile *site : profile->sites()) {
        ++result.stats.sitesSeen;
        result.stats.totalDynLoads += site->count;
        if (site->count < _config.minSiteCount) {
            ++result.stats.rejectedCold;
            continue;
        }
        if (site->stability() < _config.stabilityThreshold) {
            ++result.stats.rejectedUnstable;
            continue;
        }
        double eld = _config.globalResidenceModel
            ? cost.loadEnergyFromDistribution(global_pr)
            : cost.probabilisticLoadEnergy(*site);
        // The Oracle set grows against the deepest budget and defers
        // the economics to the runtime oracle (§5.1).
        double budget = _config.oracleSet
            ? _energy.loadEnergy(MemLevel::Memory) : eld;
        auto slice = builder.build(*site, budget, *profile, input);
        if (!slice) {
            ++result.stats.rejectedNoSlice;
            continue;
        }
        slice->eldEstimate = eld;
        if (!_config.oracleSet &&
            slice->ercEstimate >= _config.profitabilityMargin * eld) {
            ++result.stats.rejectedEnergy;
            continue;
        }
        slice->profCount = site->count;
        for (std::size_t i = 0; i < kNumMemLevels; ++i)
            slice->profResidence[i] =
                site->prLevel(static_cast<MemLevel>(i));
        slice->valueLocalityPct = profile->valueLocalityPercent(site->pc);
        candidates.push_back(std::move(*slice));
    }
    select_span.counter("sitesSeen", result.stats.sitesSeen);
    select_span.counter("candidates", candidates.size());
    select_span.stop();
    lap("select");

    // --- pass 2: functional dry-run validation (DESIGN.md §5) ---
    if (!candidates.empty()) {
        ScopedSpan span("pass:dryrun", input.name);
        DryRunValidator validator(candidates);
        Machine machine(input, _energy, _hierarchy);
        machine.setObserver(&validator);
        machine.run(_config.runLimit);

        std::vector<RSlice> validated;
        for (RSlice &slice : candidates) {
            const DryRunSiteResult &dry = validator.result(slice.loadPc);
            if (dry.evaluated == 0 ||
                dry.matchRate() < _config.matchThreshold) {
                ++result.stats.rejectedMatch;
                continue;
            }
            slice.dryRunMatchRate = dry.matchRate();
            validated.push_back(std::move(slice));
        }
        candidates = std::move(validated);
        span.counter("validated", candidates.size());
    }
    lap("dryrun");

    result.stats.selected = candidates.size();
    for (const RSlice &slice : candidates) {
        const SiteProfile *site = profile->site(slice.loadPc);
        result.stats.coveredDynLoads += site ? site->count : 0;
    }

    // --- pass 3: rewrite (§3.1.2) ---
    {
        ScopedSpan span("pass:rewrite", input.name);
        result.program = rewrite(input, candidates, &result.stats);
        result.slices = std::move(candidates);
        span.counter("selected", result.stats.selected);
        span.counter("instrs", result.program.code.size());
    }
    lap("rewrite");

    // --- pass 4: mandatory analysis gate ---
    // A compiler that emits a structurally broken binary is a compiler
    // bug, never a workload property: fail hard instead of letting the
    // machine corrupt state later.
    AnalyzerOptions lint;
    lint.energy = _energy.config();
    ScopedSpan gate_span("pass:gate", input.name);
    AnalysisReport report = analyzeProgram(result.program, lint);
    gate_span.stop();
    result.analysisSec += lap("gate");
    if (report.hasErrors())
        AMNESIAC_FATAL(std::string("compiler emitted an ill-formed "
                                   "binary:\n") +
                       report.renderText());
    result.stats.analysisWarnings = report.warningCount();
    result.stats.analysisNotes = report.count(Severity::Note);
    return result;
}

Program
AmnesicCompiler::rewrite(const Program &input,
                         const std::vector<RSlice> &slices,
                         CompileStats *stats)
{
    // REC insertions per original pc: (slice id, slice-instr index).
    std::map<std::uint32_t,
             std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        captures;
    std::unordered_map<std::uint32_t, std::uint32_t> swapped;  // loadPc->id
    for (std::uint32_t id = 0; id < slices.size(); ++id) {
        const RSlice &slice = slices[id];
        AMNESIAC_ASSERT(slice.loadPc < input.code.size() &&
                            input.code[slice.loadPc].op == Opcode::Ld,
                        "slice does not target a load");
        AMNESIAC_ASSERT(!swapped.count(slice.loadPc),
                        "two slices target one load");
        swapped[slice.loadPc] = id;
        for (const auto &[orig_pc, instr_idx] : slice.capturePoints())
            captures[orig_pc].emplace_back(id, instr_idx);
    }

    // New positions of original instructions (RECs shift everything).
    // Branches must land on the RECs preceding their target: a REC is
    // part of "just before the leaf original" (§3.1.2) and has to run
    // every time the original does, including around loop back-edges.
    std::vector<std::uint32_t> old_to_new(input.code.size());
    std::vector<std::uint32_t> branch_target(input.code.size());
    std::uint32_t new_pc = 0;
    for (std::uint32_t pc = 0; pc < input.code.size(); ++pc) {
        branch_target[pc] = new_pc;
        auto it = captures.find(pc);
        if (it != captures.end())
            new_pc += static_cast<std::uint32_t>(it->second.size());
        old_to_new[pc] = new_pc++;
    }
    std::uint32_t main_len = new_pc;

    // Slice-region layout.
    std::vector<std::uint32_t> entries(slices.size());
    std::uint32_t cursor = main_len;
    for (std::uint32_t id = 0; id < slices.size(); ++id) {
        entries[id] = cursor;
        cursor += slices[id].length() + 1;  // +1 for RTN
    }

    Program out;
    out.name = input.name;
    out.dataImage = input.dataImage;
    out.code.reserve(cursor);

    // Main code with RECs and RCMP swaps.
    for (std::uint32_t pc = 0; pc < input.code.size(); ++pc) {
        auto cap = captures.find(pc);
        if (cap != captures.end()) {
            const Instruction &orig = input.code[pc];
            for (const auto &[slice_id, instr_idx] : cap->second) {
                Instruction rec;
                rec.op = Opcode::Rec;
                rec.rs1 = orig.rs1;
                rec.rs2 = numSources(orig.op) >= 2 ? orig.rs2 : orig.rs1;
                rec.sliceId = slice_id;
                rec.leafAddr = entries[slice_id] + instr_idx;
                out.code.push_back(rec);
                if (stats)
                    ++stats->recInsertions;
            }
        }
        Instruction instr = input.code[pc];
        if (isControlFlow(instr.op) && instr.op != Opcode::Halt)
            instr.target = branch_target[instr.target];
        auto swap = swapped.find(pc);
        if (swap != swapped.end()) {
            Instruction rcmp;
            rcmp.op = Opcode::Rcmp;
            rcmp.rd = instr.rd;
            rcmp.rs1 = instr.rs1;
            rcmp.imm = instr.imm;
            rcmp.sliceId = swap->second;
            rcmp.target = entries[swap->second];
            instr = rcmp;
        }
        out.code.push_back(instr);
    }
    AMNESIAC_ASSERT(out.code.size() == main_len, "rewrite length mismatch");
    out.codeEnd = main_len;

    // Slice region: replicas in ascending dynamic order, then RTN.
    for (std::uint32_t id = 0; id < slices.size(); ++id) {
        const RSlice &slice = slices[id];
        for (const SliceInstr &si : slice.instrs) {
            Instruction instr;
            instr.op = si.op;
            instr.rd = si.rd;
            instr.imm = si.imm;
            instr.sliceId = id;
            instr.src1 = OperandSource::Live;
            instr.src2 = OperandSource::Live;
            if (si.numOps >= 1) {
                instr.rs1 = si.ops[0].reg;
                instr.src1 = si.ops[0].source;
            }
            if (si.numOps >= 2) {
                instr.rs2 = si.ops[1].reg;
                instr.src2 = si.ops[1].source;
            }
            out.code.push_back(instr);
        }
        Instruction rtn;
        rtn.op = Opcode::Rtn;
        rtn.sliceId = id;
        out.code.push_back(rtn);

        RSliceMeta meta;
        meta.id = id;
        meta.entry = entries[id];
        meta.length = slice.length();
        meta.rcmpPc = old_to_new[slice.loadPc];
        meta.height = slice.height;
        meta.leafCount = slice.leafCount;
        meta.histLeafCount = slice.histLeafCount;
        meta.histOperandCount = slice.histOperandCount;
        meta.ercEstimate = slice.ercEstimate;
        meta.eldEstimate = slice.eldEstimate;
        out.slices.push_back(meta);
    }
    AMNESIAC_ASSERT(out.code.size() == cursor, "slice region mismatch");
    return out;
}

}  // namespace amnesiac
