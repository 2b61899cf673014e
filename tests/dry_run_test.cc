/**
 * @file
 * Tests for the dry-run functional validator: it must accept slices
 * that reproduce loaded values and reject slices whose Hist-latest
 * checkpoints go stale (the soundness guard of DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include "core/dry_run.h"
#include "core/slice_builder.h"
#include "isa/program_builder.h"
#include "profile/profiler.h"

namespace amnesiac {
namespace {

/** Every candidate's result after one replay that validates `sets`. */
std::vector<std::vector<DryRunSiteResult>>
replay(const Program &program, const std::vector<std::vector<RSlice>> &sets)
{
    DryRunValidator validator(sets);
    Machine m(program, EnergyModel{});
    m.setObserver(&validator);
    m.run();
    std::vector<std::vector<DryRunSiteResult>> results(sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s)
        for (std::size_t i = 0; i < sets[s].size(); ++i)
            results[s].push_back(validator.result(s, i));
    return results;
}

DryRunSiteResult
validate(const Program &program, const RSlice &slice)
{
    return replay(program, {{slice}}).front().front();
}

/** v = x + x with x Live: always reproducible. */
TEST(DryRun, AcceptsLiveSlice)
{
    ProgramBuilder b("live");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Add;
    root.origPc = add_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Live, 2, -1};
    root.ops[1] = {OperandSource::Live, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_EQ(result.evaluated, 10u);
    EXPECT_EQ(result.matched, 10u);
    EXPECT_DOUBLE_EQ(result.matchRate(), 1.0);
}

/** Hist checkpoint captured before the producer each iteration; the
 * load consumes the latest production, so Hist-latest is correct. */
TEST(DryRun, AcceptsFreshHistSlice)
{
    ProgramBuilder b("hist-fresh");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);           // x varies per iteration
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 0);                            // clobber x
    std::uint32_t load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Mul;
    root.origPc = mul_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_DOUBLE_EQ(result.matchRate(), 1.0);
}

/** The load consumes a value produced two iterations ago while the
 * checkpoint tracks the latest production: Hist-latest is stale and the
 * validator must reject. This is exactly the unsoundness the paper's
 * proof-of-concept would not detect. */
TEST(DryRun, RejectsStaleHistSlice)
{
    ProgramBuilder b("hist-stale");
    std::uint64_t a = b.allocWords(2);
    b.li(1, a);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    b.li(9, 3);
    auto top = b.newLabel();
    b.bind(top);
    b.alu(Opcode::Add, 2, 6, 7);           // x = i+1, varies
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    // Store into word (i&1); the load below reads word ((i+1)&1) — the
    // *previous* iteration's production, so the latest checkpoint is
    // one production too new.
    b.alu(Opcode::And, 10, 6, 7);
    b.alu(Opcode::Shl, 10, 10, 9);
    b.alu(Opcode::Add, 10, 10, 1);
    b.st(10, 0, 3);
    b.alu(Opcode::Xor, 11, 6, 7);
    b.alu(Opcode::And, 11, 11, 7);
    b.alu(Opcode::Shl, 11, 11, 9);
    b.alu(Opcode::Add, 11, 11, 1);
    std::uint32_t load_pc = b.ld(4, 11);   // previous iteration's word
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Mul;
    root.origPc = mul_pc;
    root.rd = 3;
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_GT(result.evaluated, 0u);
    EXPECT_LT(result.matchRate(), 0.5);
}

/** A Hist-sourced slice whose producer never ran counts hist misses. */
TEST(DryRun, CountsHistMisses)
{
    ProgramBuilder b("hist-miss");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 7);
    b.li(1, a);
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();

    RSlice slice;
    slice.loadPc = load_pc;
    SliceInstr root;
    root.op = Opcode::Add;
    root.origPc = 999;  // never executed
    root.numOps = 2;
    root.ops[0] = {OperandSource::Hist, 2, -1};
    root.ops[1] = {OperandSource::Hist, 2, -1};
    slice.instrs.push_back(root);
    slice.computeStats();

    DryRunSiteResult result = validate(p, slice);
    EXPECT_EQ(result.histMisses, 1u);
    EXPECT_EQ(result.matched, 0u);
}

/** One replay validates two sets that share one slice, while a
 * Hist-fed slice belongs to the second set only: every candidate's
 * counts equal those of validating its set alone. */
TEST(DryRun, SetsSharingASliceMatchSeparateReplays)
{
    ProgramBuilder b("two-sets");
    std::uint64_t a = b.allocWords(2);
    b.li(1, a);
    b.li(11, a + 8);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 10);
    auto top = b.newLabel();
    b.bind(top);
    // Reads the previous iteration's product: the first instance comes
    // before any checkpoint, so it is a Hist miss.
    std::uint32_t hist_load = b.ld(4, 1);
    b.alu(Opcode::Add, 2, 6, 7);
    std::uint32_t mul_pc = b.alu(Opcode::Mul, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 0);                            // clobber x
    b.li(12, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 13, 12, 12);
    b.st(11, 0, 13);
    std::uint32_t live_load = b.ld(14, 11);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();

    RSlice live;
    live.loadPc = live_load;
    SliceInstr add;
    add.op = Opcode::Add;
    add.origPc = add_pc;
    add.rd = 13;
    add.numOps = 2;
    add.ops[0] = {OperandSource::Live, 12, -1};
    add.ops[1] = {OperandSource::Live, 12, -1};
    live.instrs.push_back(add);
    live.computeStats();

    RSlice hist;
    hist.loadPc = hist_load;
    SliceInstr mul;
    mul.op = Opcode::Mul;
    mul.origPc = mul_pc;
    mul.rd = 3;
    mul.numOps = 2;
    mul.ops[0] = {OperandSource::Hist, 2, -1};
    mul.ops[1] = {OperandSource::Hist, 2, -1};
    hist.instrs.push_back(mul);
    hist.computeStats();

    const std::vector<RSlice> first{live};
    const std::vector<RSlice> second{hist, live};
    const auto both = replay(p, {first, second});
    const auto first_alone = replay(p, {first}).front();
    const auto second_alone = replay(p, {second}).front();
    ASSERT_EQ(both.size(), 2u);
    auto expect_same = [](const DryRunSiteResult &got,
                          const DryRunSiteResult &want) {
        EXPECT_EQ(got.evaluated, want.evaluated);
        EXPECT_EQ(got.matched, want.matched);
        EXPECT_EQ(got.histMisses, want.histMisses);
    };
    expect_same(both[0][0], first_alone[0]);
    expect_same(both[1][0], second_alone[0]);
    expect_same(both[1][1], second_alone[1]);

    EXPECT_EQ(both[0][0].evaluated, 10u);
    EXPECT_EQ(both[0][0].matched, 10u);
    EXPECT_EQ(both[1][0].evaluated, 10u);
    EXPECT_EQ(both[1][0].histMisses, 1u);
    EXPECT_EQ(both[1][0].matched, 9u);
}

}  // namespace
}  // namespace amnesiac
