/**
 * @file
 * Tests for the profiling pass: per-site residence statistics, backward
 * tree capture, stability, live-operand statistics, and value locality
 * — the inputs of the §3.1.1 compiler pass.
 */

#include <gtest/gtest.h>

#include "isa/program_builder.h"
#include "profile/profiler.h"

namespace amnesiac {
namespace {

void
runProfiled(const Program &p, Profiler &profiler)
{
    Machine m(p, EnergyModel{});
    m.setObserver(&profiler);
    m.run();
}

TEST(Profiler, ResidenceStatisticsPerSite)
{
    // Load the same word repeatedly: first from memory, then L1.
    ProgramBuilder b("residence");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 3);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 8);
    b.li(4, 1);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t load_pc = b.ld(5, 1);
    b.alu(Opcode::Add, 2, 2, 4);
    b.blt(2, 3, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->count, 8u);
    EXPECT_EQ(site->byLevel[static_cast<int>(MemLevel::Memory)], 1u);
    EXPECT_EQ(site->byLevel[static_cast<int>(MemLevel::L1)], 7u);
    EXPECT_NEAR(site->prLevel(MemLevel::L1), 7.0 / 8.0, 1e-12);
    // The loaded value is a program input: untracked at every instance.
    EXPECT_EQ(site->untracked, 8u);
    EXPECT_DOUBLE_EQ(site->stability(), 0.0);
}

TEST(Profiler, CapturesProducerTreeAndLiveOperands)
{
    // v = (x + x) stored then reloaded; x stays live in r2.
    ProgramBuilder b("tree");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->untracked, 0u);
    EXPECT_DOUBLE_EQ(site->stability(), 1.0);
    const CandidateTree *top = site->topTree();
    ASSERT_NE(top, nullptr);
    ASSERT_NE(top->representative, kNoNode);
    EXPECT_EQ(profiler.tracker().node(top->representative).pc, add_pc);
    // Both operands of the producer read r2, which still holds x = 5.
    auto it = site->operandLive.find(operandKey(add_pc, 0));
    ASSERT_NE(it, site->operandLive.end());
    EXPECT_DOUBLE_EQ(it->second.rate(), 1.0);
}

TEST(Profiler, DetectsClobberedOperandAsNonLive)
{
    ProgramBuilder b("clobber");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 999);  // clobber x before the load
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    auto it = site->operandLive.find(operandKey(add_pc, 0));
    ASSERT_NE(it, site->operandLive.end());
    EXPECT_DOUBLE_EQ(it->second.rate(), 0.0);
}

TEST(Profiler, ReProducedValueCountsAsLive)
{
    // x is overwritten but re-produced with the same value before the
    // load: value-equality makes Live sourcing legal (DESIGN.md §5).
    ProgramBuilder b("reproduce");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    std::uint32_t add_pc = b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 999);
    b.li(2, 5);  // re-produce the same value
    std::uint32_t load_pc = b.ld(4, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    auto it = profiler.site(load_pc)->operandLive.find(
        operandKey(add_pc, 0));
    ASSERT_NE(it, profiler.site(load_pc)->operandLive.end());
    EXPECT_DOUBLE_EQ(it->second.rate(), 1.0);
}

TEST(Profiler, StabilityDropsWhenProducersAlternate)
{
    // Two different producer sites alternately write the loaded word.
    ProgramBuilder b("unstable");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 3);
    b.li(6, 0);
    b.li(7, 1);
    b.li(8, 6);
    std::uint32_t load_pc = 0;
    auto top = b.newLabel();
    auto odd = b.newLabel();
    auto join = b.newLabel();
    b.bind(top);
    b.alu(Opcode::And, 5, 6, 7);
    b.bne(5, 7, odd);
    b.alu(Opcode::Add, 3, 2, 2);  // producer A
    b.st(1, 0, 3);
    b.jmp(join);
    b.bind(odd);
    b.alu(Opcode::Mul, 3, 2, 2);  // producer B
    b.st(1, 0, 3);
    b.bind(join);
    load_pc = b.ld(4, 1);
    b.alu(Opcode::Add, 6, 6, 7);
    b.blt(6, 8, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->trees.size(), 2u);
    EXPECT_NEAR(site->stability(), 0.5, 0.2);
}

TEST(Profiler, ExecCountsPerPc)
{
    ProgramBuilder b("counts");
    b.li(1, 0);
    b.li(2, 4);
    b.li(3, 1);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t body = b.alu(Opcode::Add, 1, 1, 3);
    b.blt(1, 2, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_EQ(profiler.execCount(body), 4u);
    EXPECT_EQ(profiler.execCount(0), 1u);
}

TEST(Profiler, SitesSortedByPc)
{
    ProgramBuilder b("sites");
    std::uint64_t a = b.allocWords(2);
    b.li(1, a);
    b.ld(2, 1, 8);
    b.ld(3, 1, 0);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    auto sites = profiler.sites();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_LT(sites[0]->pc, sites[1]->pc);
}

TEST(Profiler, ValueLocalityIsRecorded)
{
    ProgramBuilder b("vl");
    std::uint64_t a = b.allocWords(1);
    b.poke(a, 9);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 1);
    b.li(4, 6);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t load_pc = b.ld(5, 1);
    b.alu(Opcode::Add, 2, 2, 3);
    b.blt(2, 4, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    EXPECT_DOUBLE_EQ(profiler.valueLocality().localityPercent(load_pc),
                     100.0);
}

TEST(Profiler, CountsTreeWalkNodes)
{
    // v = x + x stored, then loaded twice: once with x clobbered, once
    // with x re-produced.
    ProgramBuilder b("walk");
    std::uint64_t a = b.allocWords(1);
    b.li(1, a);
    b.li(2, 5);
    b.alu(Opcode::Add, 3, 2, 2);
    b.st(1, 0, 3);
    b.li(2, 999);
    b.ld(4, 1);
    b.li(2, 5);
    b.ld(5, 1);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    // First load: neither operand of the Add is live, so each walk
    // visits the Add and then the `li 5` producer once per operand —
    // 3 nodes for the signature, 3 for the live statistics. Second
    // load: both operands are live cuts, so each walk visits the Add
    // alone — 1 + 1.
    EXPECT_EQ(profiler.walkNodes(), 8u);
}

}  // namespace
}  // namespace amnesiac
