#include "core/compiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "analysis/prune.h"
#include "core/cost_model.h"
#include "core/dry_run.h"
#include "profile/profiler.h"
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
    return std::move(compileSets(input, {_config}).front());
}

std::vector<CompileResult>
AmnesicCompiler::compileSets(const Program &input,
                             const std::vector<CompilerConfig> &configs) const
{
    AMNESIAC_ASSERT(input.slices.empty() &&
                        input.codeEnd == input.code.size(),
                    "input binary already contains slices");
    AMNESIAC_ASSERT(!configs.empty(), "no compiler configuration");
    const std::uint64_t run_limit = configs.front().runLimit;
    for (const CompilerConfig &config : configs)
        AMNESIAC_ASSERT(config.runLimit == run_limit,
                        "slice sets of one profile need one runLimit");

    using Clock = std::chrono::steady_clock;
    const std::size_t n = configs.size();
    std::vector<CompileResult> results(n);

    // Top-level span covers the whole compile; per-pass spans nest
    // under it. The lap timer runs alongside: every named segment
    // records the wall time since the previous one in its owner's
    // table (shared passes go to results[0]), so the tables are
    // gap-free and together sum to the body's wall clock.
    ScopedSpan compile_span(
        n == 1 && configs[0].oracleSet ? "compile:oracle" : "compile",
        input.name);
    auto lap_start = Clock::now();
    auto lap = [&](std::size_t owner, const char *name) {
        const auto now = Clock::now();
        const double sec =
            std::chrono::duration<double>(now - lap_start).count();
        results[owner].passTimes.push_back({name, sec});
        lap_start = now;
        return sec;
    };

    // --- pass 0: static candidate pruning (fixpoint dataflow) ---
    // Rules the abstract interpretation can decide ahead of execution
    // (dead/cold sites, read-only inputs, slice-free value flows) are
    // decided here, so the dynamic profiler skips the per-instance tree
    // work for them. Conservative only: see CompilerConfig::prune. The
    // shared profile runs under the masks' intersection: a bit stays
    // set only if every configuration's pruner proved it redundant.
    auto prunes = [](const CompilerConfig &c) { return c.prune; };
    std::vector<StaticPruneResult> pruned(n);
    ProfilerConfig prof_config;
    if (std::any_of(configs.begin(), configs.end(), prunes)) {
        ScopedSpan span("pass:prune", input.name);
        DataflowFacts facts(input);
        std::uint64_t pruned_sites = 0;
        std::uint64_t pruned_prods = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const CompilerConfig &config = configs[k];
            if (!config.prune)
                continue;
            StaticPruneOptions prune_opts;
            prune_opts.minSiteCount = config.minSiteCount;
            prune_opts.profitabilityMargin = config.profitabilityMargin;
            prune_opts.budgetMargin = config.builder.budgetMargin;
            prune_opts.oracleSet = config.oracleSet;
            prune_opts.energy = &_energy;
            pruned[k] = computeStaticPrune(input, facts, prune_opts);
            results[k].stats.prunedSites = pruned[k].prunedSites;
            results[k].stats.prunedProductions = pruned[k].prunedProductions;
            pruned_sites += pruned[k].prunedSites;
            pruned_prods += pruned[k].prunedProductions;
        }
        // An unpruned configuration sets no bit, so then the
        // intersection is empty.
        if (std::all_of(configs.begin(), configs.end(), prunes)) {
            std::vector<std::uint8_t> &skip = prof_config.skipSiteAnalysis;
            std::vector<std::uint8_t> &opaque = prof_config.opaqueProduction;
            skip = pruned[0].skipSiteAnalysis;
            opaque = pruned[0].opaqueProduction;
            for (std::size_t k = 1; k < n; ++k)
                for (std::size_t pc = 0; pc < skip.size(); ++pc) {
                    skip[pc] &= pruned[k].skipSiteAnalysis[pc];
                    opaque[pc] &= pruned[k].opaqueProduction[pc];
                }
        }
        span.counter("prunedSites", pruned_sites);
        span.counter("prunedProds", pruned_prods);
    }
    results[0].analysisSec += lap(0, "prune");

    // --- pass 1: dependence + residence profiling (§3.1.1, §4) ---
    // The profiler, and with it the dependence arena (hundreds of MB
    // on the largest mimics), lives only until select: the dry run,
    // rewrite and gate read nothing from it but the per-site counts
    // select copies into each RSlice (`profCount`), and the tree
    // representatives' NodeIds must not outlive the arena.
    std::vector<std::vector<RSlice>> candidates(n);
    {
        Profiler profile(prof_config);
        {
            ScopedSpan span("pass:profile", input.name);
            Machine machine(input, _energy, _hierarchy);
            machine.setObserver(&profile);
            machine.run(run_limit);
            const DepTracker &tracker = profile.tracker();
            for (CompileResult &result : results)
                result.profileRun = machine.stats();
            ProfilerCounters &counters = results[0].profilerCounters;
            counters = {tracker.productions(), tracker.arenaSize(),
                        profile.walkNodes(), profile.operandProbes()};
            span.counter("walkNodes", counters.walkNodes);
            span.counter("operandProbes", counters.operandProbes);
            span.counter("productions", counters.productions);
            span.counter("arenaNodes", counters.arenaNodes);
            span.counter("freeNodes", tracker.freeCount());
        }
        results[0].profileSec = lap(0, "profile");

        const std::vector<const SiteProfile *> sites = profile.sites();
        // Global per-level residence distribution (the paper's Pr_Li model).
        std::array<double, kNumMemLevels> global_pr{};
        {
            std::array<std::uint64_t, kNumMemLevels> by_level{};
            std::uint64_t total = 0;
            for (const SiteProfile *site : sites) {
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

        CostModel cost(_energy);
        for (std::size_t k = 0; k < n; ++k) {
            const CompilerConfig &config = configs[k];
            CompileStats &stats = results[k].stats;
            SliceBuilder builder(_energy, config.builder);
            ScopedSpan select_span("pass:select", input.name);
            for (const SiteProfile *site : sites) {
                ++stats.sitesSeen;
                stats.totalDynLoads += site->count;
                if (site->count < config.minSiteCount) {
                    ++stats.rejectedCold;
                    continue;
                }
                // A site this configuration's pruner skipped has no trees
                // in its own profile; the shared one may have analyzed it
                // for another configuration.
                const std::vector<std::uint8_t> &skip =
                    pruned[k].skipSiteAnalysis;
                const bool skipped = site->pc < skip.size() && skip[site->pc];
                if ((skipped ? 0.0 : site->stability()) <
                    config.stabilityThreshold) {
                    ++stats.rejectedUnstable;
                    continue;
                }
                double eld = config.globalResidenceModel
                    ? cost.loadEnergyFromDistribution(global_pr)
                    : cost.probabilisticLoadEnergy(*site);
                // The Oracle set grows against the deepest budget and
                // defers the economics to the runtime oracle (§5.1).
                double budget = config.oracleSet
                    ? _energy.loadEnergy(MemLevel::Memory) : eld;
                auto slice = skipped
                    ? std::optional<RSlice>()
                    : builder.build(*site, budget, profile, input);
                if (!slice) {
                    ++stats.rejectedNoSlice;
                    continue;
                }
                slice->eldEstimate = eld;
                if (!config.oracleSet &&
                    slice->ercEstimate >= config.profitabilityMargin * eld) {
                    ++stats.rejectedEnergy;
                    continue;
                }
                slice->profCount = site->count;
                for (std::size_t i = 0; i < kNumMemLevels; ++i)
                    slice->profResidence[i] =
                        site->prLevel(static_cast<MemLevel>(i));
                slice->valueLocalityPct = site->valueLocalityPercent();
                candidates[k].push_back(std::move(*slice));
            }
            select_span.counter("sitesSeen", stats.sitesSeen);
            select_span.counter("candidates", candidates[k].size());
            select_span.stop();
            lap(k, "select");
        }
    }

    // --- pass 2: functional dry-run validation (DESIGN.md §5) ---
    // One replay validates every candidate set, and a slice that
    // several sets share is evaluated once.
    if (std::any_of(candidates.begin(), candidates.end(),
                    [](const auto &set) { return !set.empty(); })) {
        ScopedSpan span("pass:dryrun", input.name);
        DryRunValidator validator(candidates);
        Machine machine(input, _energy, _hierarchy);
        machine.setObserver(&validator);
        machine.run(run_limit);

        std::uint64_t validated_total = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::vector<RSlice> validated;
            for (std::size_t i = 0; i < candidates[k].size(); ++i) {
                RSlice &slice = candidates[k][i];
                const DryRunSiteResult &dry = validator.result(k, i);
                if (dry.evaluated == 0 ||
                    dry.matchRate() < configs[k].matchThreshold) {
                    ++results[k].stats.rejectedMatch;
                    continue;
                }
                slice.dryRunMatchRate = dry.matchRate();
                validated.push_back(std::move(slice));
            }
            candidates[k] = std::move(validated);
            validated_total += candidates[k].size();
        }
        span.counter("validated", validated_total);
    }
    lap(0, "dryrun");

    AnalyzerOptions lint;
    lint.energy = _energy.config();
    for (std::size_t k = 0; k < n; ++k) {
        CompileResult &result = results[k];
        result.stats.selected = candidates[k].size();
        for (const RSlice &slice : candidates[k])
            result.stats.coveredDynLoads += slice.profCount;

        // --- pass 3: rewrite (§3.1.2) ---
        {
            ScopedSpan span("pass:rewrite", input.name);
            result.program = rewrite(input, candidates[k], &result.stats);
            result.slices = std::move(candidates[k]);
            span.counter("selected", result.stats.selected);
            span.counter("instrs", result.program.code.size());
        }
        lap(k, "rewrite");

        // --- pass 4: mandatory analysis gate ---
        // A compiler that emits a structurally broken binary is a
        // compiler bug, never a workload property: fail hard instead of
        // letting the machine corrupt state later.
        ScopedSpan gate_span("pass:gate", input.name);
        AnalysisReport report = analyzeProgram(result.program, lint);
        gate_span.stop();
        result.analysisSec += lap(k, "gate");
        if (report.hasErrors())
            AMNESIAC_FATAL(std::string("compiler emitted an ill-formed "
                                       "binary:\n") +
                           report.renderText());
        result.stats.analysisWarnings = report.warningCount();
        result.stats.analysisNotes = report.count(Severity::Note);
    }
    return results;
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
