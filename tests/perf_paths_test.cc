/**
 * @file
 * Perf-path equivalence tests pinned to the predecoded fast-path
 * interpreter and the arena-backed dependence tracker:
 *
 *  (a) the templated run() loop must be bit-identical to the generic
 *      step() loop — same SimStats (including energy doubles), same
 *      final architectural state — over the whole workload registry
 *      (classic) and over every scheduling policy (amnesic, with the
 *      full RCMP/REC/slice trace compared event-for-event);
 *  (b) the profiling pass (observer attached: the slow template
 *      instantiation) produces the same profile either way;
 *  (c) the tracker's steady state performs zero heap allocations — the
 *      free-list arena must recycle dead subgraphs instead of touching
 *      operator new (the perf contract behind the profiling speedup).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/amnesic_machine.h"
#include "core/compiler.h"
#include "profile/profiler.h"
#include "report/experiment.h"
#include "sim/machine.h"
#include "workloads/registry.h"

// --- global allocation counter --------------------------------------------
// Replaces the global scalar operator new for this test binary only (each
// test .cc links into its own gtest executable). new[] funnels through
// this by the default-implementation rule.

static std::atomic<std::uint64_t> g_newCalls{0};

void *
operator new(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
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

// --- shared comparators ----------------------------------------------------

void
expectStatsIdentical(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.dynLoads, b.dynLoads);
    EXPECT_EQ(a.dynStores, b.dynStores);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2WritebackInstalls, b.l2WritebackInstalls);
    // Bit-identical energy: the fast loop must charge the exact same
    // doubles in the exact same order as the generic step() loop.
    EXPECT_EQ(a.energy.loadNj, b.energy.loadNj);
    EXPECT_EQ(a.energy.storeNj, b.energy.storeNj);
    EXPECT_EQ(a.energy.nonMemNj, b.energy.nonMemNj);
    EXPECT_EQ(a.energy.histReadNj, b.energy.histReadNj);
    EXPECT_EQ(a.perCategory, b.perCategory);
    EXPECT_EQ(a.rcmpSeen, b.rcmpSeen);
    EXPECT_EQ(a.recomputations, b.recomputations);
    EXPECT_EQ(a.fallbackLoads, b.fallbackLoads);
    EXPECT_EQ(a.recomputedInstrs, b.recomputedInstrs);
    EXPECT_EQ(a.histReads, b.histReads);
    EXPECT_EQ(a.histWrites, b.histWrites);
    EXPECT_EQ(a.histOverflows, b.histOverflows);
    EXPECT_EQ(a.recomputeChecked, b.recomputeChecked);
    EXPECT_EQ(a.recomputeMismatches, b.recomputeMismatches);
    EXPECT_EQ(a.sfileAborts, b.sfileAborts);
    EXPECT_EQ(a.histMissFallbacks, b.histMissFallbacks);
    EXPECT_EQ(a.swappedByLevel, b.swappedByLevel);
    EXPECT_EQ(a.fallbackByLevel, b.fallbackByLevel);
}

void
expectArchIdentical(const Machine &a, const Machine &b)
{
    EXPECT_EQ(a.halted(), b.halted());
    EXPECT_EQ(a.pc(), b.pc());
    for (unsigned r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(a.reg(static_cast<Reg>(r)), b.reg(static_cast<Reg>(r)));
}

Instruction
alu(Opcode op, Reg rd, Reg rs1, Reg rs2, std::int64_t imm = 0)
{
    Instruction i;
    i.op = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    i.imm = imm;
    return i;
}

// --- (a) classic: fast run() loop vs generic step() loop -------------------

TEST(PerfPaths, ClassicFastLoopMatchesStepLoop)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    for (const std::string &name : registeredWorkloads()) {
        SCOPED_TRACE(name);
        Workload workload = makeWorkload(name, 1);

        Machine fast(workload.program, energy, config.hierarchy);
        fast.run(config.runLimit);

        Machine slow(workload.program, energy, config.hierarchy);
        while (slow.step()) {
        }

        expectStatsIdentical(fast.stats(), slow.stats());
        expectArchIdentical(fast, slow);
        EXPECT_GT(fast.stats().dynInstrs, 0u);
    }
}

// --- (b) profiled (observer attached) fast loop vs step loop ---------------

void
expectProfilesIdentical(const Profiler &a, const Profiler &b)
{
    EXPECT_EQ(a.tracker().productions(), b.tracker().productions());
    EXPECT_EQ(a.walkNodes(), b.walkNodes());
    EXPECT_EQ(a.operandProbes(), b.operandProbes());
    std::vector<const SiteProfile *> sa = a.sites();
    std::vector<const SiteProfile *> sb = b.sites();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        SCOPED_TRACE("site " + std::to_string(sa[i]->pc));
        EXPECT_EQ(sa[i]->pc, sb[i]->pc);
        EXPECT_EQ(sa[i]->count, sb[i]->count);
        EXPECT_EQ(sa[i]->byLevel, sb[i]->byLevel);
        EXPECT_EQ(sa[i]->repeats, sb[i]->repeats);
        EXPECT_EQ(sa[i]->valueLocalityPercent(),
                  sb[i]->valueLocalityPercent());
        EXPECT_EQ(sa[i]->untracked, sb[i]->untracked);
        EXPECT_EQ(sa[i]->treeOverflow, sb[i]->treeOverflow);
        ASSERT_EQ(sa[i]->trees.size(), sb[i]->trees.size());
        for (std::size_t t = 0; t < sa[i]->trees.size(); ++t) {
            EXPECT_EQ(sa[i]->trees[t].signature, sb[i]->trees[t].signature);
            EXPECT_EQ(sa[i]->trees[t].count, sb[i]->trees[t].count);
        }
        ASSERT_EQ(sa[i]->operandLive.size(), sb[i]->operandLive.size());
        for (std::size_t slot = 0; slot < sa[i]->operandLive.size();
             ++slot) {
            const auto node_pc = static_cast<std::uint32_t>(slot / 2);
            const int idx = static_cast<int>(slot % 2);
            const OperandLiveStat *a_stat = sa[i]->liveStat(node_pc, idx);
            const OperandLiveStat *b_stat = sb[i]->liveStat(node_pc, idx);
            ASSERT_EQ(a_stat == nullptr, b_stat == nullptr) << "slot " << slot;
            if (a_stat) {
                EXPECT_EQ(a_stat->seen, b_stat->seen) << "slot " << slot;
                EXPECT_EQ(a_stat->matches, b_stat->matches) << "slot " << slot;
            }
        }
    }
}

TEST(PerfPaths, ProfiledFastLoopMatchesStepLoop)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    for (const char *name : {"stream-recompute", "hist-stress"}) {
        SCOPED_TRACE(name);
        Workload workload = makeWorkload(name, 1);

        Profiler profiler_fast;
        Machine fast(workload.program, energy, config.hierarchy);
        fast.setObserver(&profiler_fast);
        fast.run(config.runLimit);

        Profiler profiler_slow;
        Machine slow(workload.program, energy, config.hierarchy);
        slow.setObserver(&profiler_slow);
        while (slow.step()) {
        }

        expectStatsIdentical(fast.stats(), slow.stats());
        expectArchIdentical(fast, slow);
        expectProfilesIdentical(profiler_fast, profiler_slow);
    }
}

// --- (a') amnesic: fast loop vs step loop, every policy, full trace --------

struct TraceRecorder : AmnesicTraceHooks
{
    struct Exit
    {
        std::uint64_t cycles;
        std::uint32_t pc, sliceId, instrs;
        bool completed;
    };

    std::vector<RcmpEvent> rcmps;
    std::vector<Exit> exits;
    std::uint64_t entries = 0;
    std::uint64_t recs = 0;

    void onRcmp(const RcmpEvent &event) override { rcmps.push_back(event); }

    void
    onSliceEntry(std::uint64_t, std::uint32_t, std::uint32_t) override
    {
        ++entries;
    }

    void
    onSliceExit(std::uint64_t cycles, std::uint32_t pc,
                std::uint32_t slice_id, std::uint32_t instrs,
                bool completed) override
    {
        exits.push_back({cycles, pc, slice_id, instrs, completed});
    }

    void
    onRec(std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t,
          bool) override
    {
        ++recs;
    }
};

void
expectTracesIdentical(const TraceRecorder &a, const TraceRecorder &b)
{
    EXPECT_EQ(a.entries, b.entries);
    EXPECT_EQ(a.recs, b.recs);
    ASSERT_EQ(a.rcmps.size(), b.rcmps.size());
    for (std::size_t i = 0; i < a.rcmps.size(); ++i) {
        SCOPED_TRACE("rcmp event " + std::to_string(i));
        const AmnesicTraceHooks::RcmpEvent &x = a.rcmps[i];
        const AmnesicTraceHooks::RcmpEvent &y = b.rcmps[i];
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.sliceId, y.sliceId);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.residence, y.residence);
        EXPECT_EQ(x.fired, y.fired);
        EXPECT_EQ(x.poisoned, y.poisoned);
        EXPECT_EQ(x.histMissAbort, y.histMissAbort);
        EXPECT_EQ(x.sfileAbort, y.sfileAbort);
        EXPECT_EQ(x.predictorUsed, y.predictorUsed);
        EXPECT_EQ(x.predictedMiss, y.predictedMiss);
        EXPECT_EQ(x.sliceInstrs, y.sliceInstrs);
        EXPECT_EQ(x.loadNj, y.loadNj);
        EXPECT_EQ(x.sliceNj, y.sliceNj);
        EXPECT_EQ(x.estSliceNj, y.estSliceNj);
    }
    ASSERT_EQ(a.exits.size(), b.exits.size());
    for (std::size_t i = 0; i < a.exits.size(); ++i) {
        EXPECT_EQ(a.exits[i].cycles, b.exits[i].cycles);
        EXPECT_EQ(a.exits[i].pc, b.exits[i].pc);
        EXPECT_EQ(a.exits[i].sliceId, b.exits[i].sliceId);
        EXPECT_EQ(a.exits[i].instrs, b.exits[i].instrs);
        EXPECT_EQ(a.exits[i].completed, b.exits[i].completed);
    }
}

TEST(PerfPaths, AmnesicFastLoopMatchesStepLoopEveryPolicy)
{
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    Workload workload = makeWorkload("stream-recompute", 1);

    for (Policy policy : {Policy::Compiler, Policy::FLC, Policy::LLC,
                          Policy::COracle, Policy::Oracle,
                          Policy::Predictor}) {
        SCOPED_TRACE(policyName(policy));
        CompilerConfig compiler_config = config.compiler;
        compiler_config.runLimit = config.runLimit;
        compiler_config.oracleSet = needsOracleSet(policy);
        AmnesicCompiler compiler(energy, config.hierarchy, compiler_config);
        CompileResult compiled = compiler.compile(workload.program);
        AmnesicConfig amnesic = config.amnesic;
        amnesic.policy = policy;

        TraceRecorder trace_fast;
        AmnesicMachine fast(compiled.program, energy, amnesic,
                            config.hierarchy);
        fast.setTraceHooks(&trace_fast);
        fast.run(config.runLimit);

        TraceRecorder trace_slow;
        AmnesicMachine slow(compiled.program, energy, amnesic,
                            config.hierarchy);
        slow.setTraceHooks(&trace_slow);
        while (slow.step()) {
        }

        expectStatsIdentical(fast.stats(), slow.stats());
        expectArchIdentical(fast, slow);
        expectTracesIdentical(trace_fast, trace_slow);
        // Non-vacuous: the workload actually exercises RCMP sites.
        EXPECT_FALSE(trace_fast.rcmps.empty());
    }
}

// --- (c) steady-state zero-allocation contract -----------------------------

TEST(PerfPaths, DepTrackerSteadyStateIsAllocationFree)
{
    DepTracker t;

    // A realistic profiling mix: leaf productions, a small expression
    // tree, a store/load round-trip over a fixed address set, and a
    // loop-carried accumulator. Every iteration kills the previous
    // iteration's productions, so after warm-up the arena, free list,
    // reclaim scratch, and memory map are all at steady-state capacity.
    auto burst = [&t]() {
        Instruction st;
        st.op = Opcode::St;
        st.rs1 = 5;
        st.rs2 = 4;
        Instruction ld;
        ld.op = Opcode::Ld;
        ld.rd = 6;
        ld.rs1 = 5;
        for (int i = 0; i < 2048; ++i) {
            std::uint64_t v = static_cast<std::uint64_t>(i);
            std::uint64_t addr = 64 + static_cast<std::uint64_t>(i % 8) * 8;
            t.onAlu(10, alu(Opcode::Li, 1, 0, 0, i), v);
            t.onAlu(11, alu(Opcode::Li, 2, 0, 0, 2), 2);
            t.onAlu(12, alu(Opcode::Add, 3, 1, 2), v + 2);
            t.onAlu(13, alu(Opcode::Mul, 4, 3, 1), (v + 2) * v);
            t.onStore(st, addr);
            t.onLoad(14, ld, addr, (v + 2) * v);
            t.onAlu(15, alu(Opcode::Add, 7, 7, 6), v);
        }
    };

    burst();  // warm-up: grow all containers to their fixed point

    const std::uint64_t before =
        g_newCalls.load(std::memory_order_relaxed);
    burst();
    const std::uint64_t after = g_newCalls.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "DepTracker steady state performed " << (after - before)
        << " heap allocations over 2048 iterations";
    EXPECT_GT(t.productions(), 0u);
}

}  // namespace
}  // namespace amnesiac
