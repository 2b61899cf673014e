/**
 * @file
 * Tests for the slice builder: §3.1.1 level-by-level growth under the
 * energy budget, operand sourcing decisions, and hard caps.
 */

#include <gtest/gtest.h>

#include "core/slice_builder.h"
#include "isa/program_builder.h"

namespace amnesiac {
namespace {

/** SliceBuilder keeps a pointer to its energy model: it must outlive
 * every builder. */
const EnergyModel kEnergy;

struct Profiled
{
    Program program;
    Profiler profiler;
    std::uint32_t loadPc = 0;
};

/**
 * Produce/consume micro-kernel: v = chain(x) stored and reloaded in a
 * loop; x is recomputed into r2 by the consumer so the chain's input
 * is Live.
 * @param chain_len ALU operations in the producing chain
 * @param clobber_x overwrite r2 before the load (forces Hist sourcing)
 */
Profiled
makeProfiled(int chain_len, bool clobber_x)
{
    ProgramBuilder b("kernel");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);   // loop counter
    b.li(7, 1);
    b.li(8, 12);  // trips
    auto top = b.newLabel();
    b.bind(top);
    b.li(2, 5);                        // x
    b.alu(Opcode::Add, 3, 2, 2);       // chain op 0
    // Additive recurrence: every intermediate value is distinct, so no
    // accidental value-equality Live cut can shorten the chain.
    for (int i = 1; i < chain_len; ++i)
        b.alu(Opcode::Add, 3, 3, 2);
    b.st(1, 0, 3);
    if (clobber_x)
        b.li(2, 1000);
    else
        b.li(2, 5);  // re-produce the same value
    Profiled result;
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    result.program = b.finish();
    result.loadPc = load_pc;
    Machine m(result.program, EnergyModel{});
    m.setObserver(&result.profiler);
    m.run();
    return result;
}

TEST(SliceBuilder, BuildsFullChainUnderGenerousBudget)
{
    Profiled p = makeProfiled(4, false);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    const SiteProfile *site = p.profiler.site(p.loadPc);
    ASSERT_NE(site, nullptr);
    auto slice = builder.build(*site, 100.0, p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    EXPECT_EQ(slice->length(), 4u);
    EXPECT_EQ(slice->histLeafCount, 0u) << "x is live, no REC needed";
    // The root is the last chain op and is emitted last.
    EXPECT_EQ(slice->instrs.back().op, Opcode::Add);
}

TEST(SliceBuilder, TopologicalProducerIndexes)
{
    Profiled p = makeProfiled(5, false);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    auto slice = builder.build(*p.profiler.site(p.loadPc), 100.0,
                               p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    for (std::size_t i = 0; i < slice->instrs.size(); ++i) {
        const SliceInstr &instr = slice->instrs[i];
        for (int k = 0; k < instr.numOps; ++k)
            if (instr.ops[k].source == OperandSource::Slice)
                EXPECT_LT(instr.ops[k].producerIndex,
                          static_cast<std::int32_t>(i));
        if (i > 0)
            EXPECT_LT(slice->instrs[i - 1].seq, instr.seq);
    }
}

TEST(SliceBuilder, ClobberedInputBecomesHistLeaf)
{
    Profiled p = makeProfiled(3, true);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    auto slice = builder.build(*p.profiler.site(p.loadPc), 100.0,
                               p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    // The x producer (li r2, 5) is itself a terminal Li, so the builder
    // can still expand into it instead of using Hist — the Li replica
    // is cheaper and exact. Either sourcing is correct; what matters is
    // a valid slice with x accounted for.
    bool has_hist = slice->histLeafCount > 0;
    bool has_li = false;
    for (const SliceInstr &instr : slice->instrs)
        has_li |= instr.op == Opcode::Li;
    EXPECT_TRUE(has_hist || has_li);
}

TEST(SliceBuilder, ReturnsNothingWhenBudgetTooSmall)
{
    Profiled p = makeProfiled(6, false);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    // Budget below even a single-instruction slice (root + RCMP + RTN).
    auto slice = builder.build(*p.profiler.site(p.loadPc), 0.5,
                               p.profiler, p.program);
    EXPECT_FALSE(slice.has_value());
}

TEST(SliceBuilder, BudgetCapsTheAcceptedCost)
{
    Profiled p = makeProfiled(8, false);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    auto big = builder.build(*p.profiler.site(p.loadPc), 100.0,
                             p.profiler, p.program);
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(big->length(), 8u);
    // Any slice accepted under a tighter budget must respect it; here
    // every partial chain needs a Hist cut that costs more than the
    // full Live-leaf chain, so sub-full budgets yield nothing at all.
    auto medium = builder.build(*p.profiler.site(p.loadPc), 5.0,
                                p.profiler, p.program);
    if (medium.has_value())
        EXPECT_LE(medium->ercEstimate, 5.0);
    auto tiny = builder.build(*p.profiler.site(p.loadPc), 1.0,
                              p.profiler, p.program);
    EXPECT_FALSE(tiny.has_value());
}

TEST(SliceBuilder, MaxInstrsCapHolds)
{
    Profiled p = makeProfiled(20, false);
    SliceBuilderConfig config;
    config.maxInstrs = 6;
    SliceBuilder builder(kEnergy, config);
    auto slice = builder.build(*p.profiler.site(p.loadPc), 1000.0,
                               p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    EXPECT_LE(slice->length(), 6u);
}

TEST(SliceBuilder, MaxHeightCapHolds)
{
    Profiled p = makeProfiled(20, false);
    SliceBuilderConfig config;
    config.maxHeight = 3;
    SliceBuilder builder(kEnergy, config);
    auto slice = builder.build(*p.profiler.site(p.loadPc), 1000.0,
                               p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    EXPECT_LE(slice->height, 3u);
}

TEST(SliceBuilder, NoSliceForUntrackedLoads)
{
    // A load of a program input has no producer tree (§2.2 case i).
    ProgramBuilder b("input");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 7);
    b.li(1, a);
    std::uint32_t load_pc = b.ld(2, 1);
    b.halt();
    Program program = b.finish();
    Profiler profiler;
    Machine m(program, EnergyModel{});
    m.setObserver(&profiler);
    m.run();
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    auto slice = builder.build(*profiler.site(load_pc), 100.0, profiler,
                               program);
    EXPECT_FALSE(slice.has_value());
}

TEST(SliceBuilder, EstimatesRecordedOnSlice)
{
    Profiled p = makeProfiled(4, false);
    SliceBuilder builder(kEnergy, SliceBuilderConfig{});
    auto slice = builder.build(*p.profiler.site(p.loadPc), 42.0,
                               p.profiler, p.program);
    ASSERT_TRUE(slice.has_value());
    EXPECT_DOUBLE_EQ(slice->eldEstimate, 42.0);
    EXPECT_GT(slice->ercEstimate, 0.0);
    EXPECT_LE(slice->ercEstimate, 42.0);
}

}  // namespace
}  // namespace amnesiac
