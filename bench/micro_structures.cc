/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot structures:
 * cache accesses, hierarchy walks, SFile/Hist operations, interpreter
 * throughput, dependence-tracker productions, the profiler's tree
 * walk and the compiler's dry-run replay. These gate the wall-clock
 * cost of the experiment harnesses.
 */

#include <benchmark/benchmark.h>

#include "core/compiler.h"
#include "core/dry_run.h"
#include "core/uarch.h"
#include "isa/program_builder.h"
#include "mem/hierarchy.h"
#include "profile/profiler.h"
#include "sim/machine.h"
#include "util/rng.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{32 * 1024, 8, 64});
    Xorshift64Star rng(1);
    bool dirty;
    std::uint64_t victim;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.next() & 0xFFFFF8, false, dirty, victim));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyRead(benchmark::State &state)
{
    MemoryHierarchy hierarchy;
    Xorshift64Star rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(hierarchy.read(rng.next() & 0xFFFFF8));
}
BENCHMARK(BM_HierarchyRead);

void
BM_HierarchyPeek(benchmark::State &state)
{
    MemoryHierarchy hierarchy;
    Xorshift64Star rng(3);
    for (std::uint64_t i = 0; i < 10000; ++i)
        hierarchy.read(rng.next() & 0xFFFFF8);
    for (auto _ : state)
        benchmark::DoNotOptimize(hierarchy.peekLevel(rng.next() & 0xFFFFF8));
}
BENCHMARK(BM_HierarchyPeek);

void
BM_SFileAllocCycle(benchmark::State &state)
{
    SFile sfile(192);
    for (auto _ : state) {
        sfile.beginSlice();
        for (int i = 0; i < 16; ++i)
            benchmark::DoNotOptimize(sfile.alloc(i));
    }
}
BENCHMARK(BM_SFileAllocCycle);

void
BM_HistRecordLookup(benchmark::State &state)
{
    Hist hist(600);
    Xorshift64Star rng(4);
    for (auto _ : state) {
        std::uint32_t leaf = static_cast<std::uint32_t>(rng.nextBelow(600));
        hist.record(leaf, 1, 2);
        benchmark::DoNotOptimize(hist.lookup(leaf));
    }
}
BENCHMARK(BM_HistRecordLookup);

Program
interpreterKernel()
{
    ProgramBuilder b("kernel");
    std::uint64_t a = b.allocWords(1024);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 1);
    b.li(4, 1000);
    b.li(9, 1023 * 8);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 5, 2, 2);
    b.alu(Opcode::Xor, 5, 5, 3);
    b.alu(Opcode::And, 6, 5, 9);
    b.alu(Opcode::Add, 6, 6, 1);
    b.st(6, 0, 5);
    b.ld(7, 6);
    b.alu(Opcode::Add, 2, 2, 3);
    b.blt(2, 4, top);
    b.halt();
    return b.finish();
}

void
BM_InterpreterThroughput(benchmark::State &state)
{
    Program p = interpreterKernel();
    EnergyModel energy;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        Machine m(p, energy);
        m.run();
        instrs += m.stats().dynInstrs;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void
BM_ProfiledThroughput(benchmark::State &state)
{
    Program p = interpreterKernel();
    EnergyModel energy;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        Machine m(p, energy);
        Profiler profiler;
        m.setObserver(&profiler);
        m.run();
        instrs += m.stats().dynInstrs;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProfiledThroughput);

void
BM_ProfilerWalk(benchmark::State &state)
{
    // A whole profiling run of the ca mimic, counted per node its
    // per-load tree walks visit (ca has among the most walk nodes per
    // instruction). Read next to the tracker's own cost in
    // BM_DepTrackerProduce.
    Workload workload = makeWorkload("ca", 1);
    EnergyModel energy;
    std::uint64_t nodes = 0;
    for (auto _ : state) {
        Machine m(workload.program, energy);
        Profiler profiler;
        m.setObserver(&profiler);
        m.run();
        nodes += profiler.walkNodes();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(nodes));
    state.counters["walkNode"] = benchmark::Counter(
        static_cast<double>(nodes),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ProfilerWalk)->Unit(benchmark::kMillisecond);

void
BM_DryRunReplay(benchmark::State &state)
{
    // One dry-run replay of the sx mimic that validates its
    // probabilistic and Oracle slice sets together, as compileSets
    // does. The sets are the compiled slices, made once per process.
    static const std::vector<std::vector<RSlice>> sets = [] {
        CompilerConfig oracle;
        oracle.oracleSet = true;
        std::vector<CompileResult> compiled =
            AmnesicCompiler(EnergyModel{}).compileSets(
                makeWorkload("sx", 1).program, {CompilerConfig{}, oracle});
        return std::vector<std::vector<RSlice>>{compiled[0].slices,
                                                compiled[1].slices};
    }();
    Workload workload = makeWorkload("sx", 1);
    EnergyModel energy;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        DryRunValidator validator(sets);
        Machine m(workload.program, energy);
        m.setObserver(&validator);
        m.run();
        instrs += m.stats().dynInstrs;
        benchmark::DoNotOptimize(validator);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DryRunReplay)->Unit(benchmark::kMillisecond);

void
BM_DepTrackerProduce(benchmark::State &state)
{
    // Steady-state producer tracking: each iteration makes a leaf and
    // a two-op expression whose chain crosses pcs (so it runs to the
    // global depth cap), stores the result to one of 1024 words and
    // reloads another. After warm-up every node comes off the free
    // list and the arena stops growing.
    DepTracker tracker;
    Instruction li;
    li.op = Opcode::Li;
    li.rd = 1;
    Instruction add;
    add.op = Opcode::Add;
    add.rd = 2;
    add.rs1 = 1;
    add.rs2 = 3;
    Instruction mul;
    mul.op = Opcode::Mul;
    mul.rd = 3;
    mul.rs1 = 2;
    mul.rs2 = 1;
    Instruction st;
    st.op = Opcode::St;
    st.rs2 = 3;
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 4;
    std::uint64_t i = 0;
    for (auto _ : state) {
        tracker.onAlu(0, li, i);
        tracker.onAlu(1, add, i + 1);
        tracker.onAlu(2, mul, i * 3);
        tracker.onStore(st, (i % 1024) * 8);
        tracker.onLoad(4, ld, ((i * 7) % 1024) * 8, i);
        benchmark::DoNotOptimize(tracker.regProducer(4));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i) * 5);
    state.counters["arenaNodes"] = static_cast<double>(tracker.arenaSize());
}
BENCHMARK(BM_DepTrackerProduce);

}  // namespace
}  // namespace amnesiac

BENCHMARK_MAIN();
