/**
 * @file
 * Tests for the profiling pass: per-site residence statistics, backward
 * tree capture, stability, live-operand statistics, and value locality
 * (§5.6) — the inputs of the §3.1.1 compiler pass.
 */

#include <gtest/gtest.h>

#include "isa/program_builder.h"
#include "profile/profiler.h"
#include "report/experiment.h"
#include "util/bytes.h"
#include "workloads/registry.h"

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
    const OperandLiveStat *stat = site->liveStat(add_pc, 0);
    ASSERT_NE(stat, nullptr);
    EXPECT_DOUBLE_EQ(stat->rate(), 1.0);
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
    const OperandLiveStat *stat = site->liveStat(add_pc, 0);
    ASSERT_NE(stat, nullptr);
    EXPECT_DOUBLE_EQ(stat->rate(), 0.0);
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
    const OperandLiveStat *stat =
        profiler.site(load_pc)->liveStat(add_pc, 0);
    ASSERT_NE(stat, nullptr);
    EXPECT_DOUBLE_EQ(stat->rate(), 1.0);
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

TEST(SiteProfile, UnseenSiteHasZeroValueLocality)
{
    SiteProfile site;
    EXPECT_EQ(site.count, 0u);
    EXPECT_DOUBLE_EQ(site.valueLocalityPercent(), 0.0);
}

TEST(SiteProfile, SingleInstanceHasZeroValueLocality)
{
    SiteProfile site;
    site.recordLoad(42, MemLevel::Memory);
    EXPECT_EQ(site.count, 1u);
    EXPECT_EQ(site.byLevel[static_cast<int>(MemLevel::Memory)], 1u);
    EXPECT_DOUBLE_EQ(site.valueLocalityPercent(), 0.0);
}

TEST(SiteProfile, ConstantStreamIsFullyLocal)
{
    SiteProfile site;
    for (int i = 0; i < 100; ++i)
        site.recordLoad(7, MemLevel::L1);
    EXPECT_EQ(site.repeats, 99u);
    EXPECT_DOUBLE_EQ(site.valueLocalityPercent(), 100.0);
}

TEST(SiteProfile, DistinctStreamHasZeroValueLocality)
{
    SiteProfile site;
    for (int i = 0; i < 100; ++i)
        site.recordLoad(static_cast<std::uint64_t>(i), MemLevel::L1);
    EXPECT_EQ(site.repeats, 0u);
    EXPECT_DOUBLE_EQ(site.valueLocalityPercent(), 0.0);
}

TEST(SiteProfile, AlternatingStreamIsHalfLocalPerRepeat)
{
    // a a b b a a b b ... : half of the transitions repeat.
    SiteProfile site;
    for (int i = 0; i < 100; ++i)
        site.recordLoad(static_cast<std::uint64_t>((i / 2) % 2),
                        MemLevel::L1);
    EXPECT_NEAR(site.valueLocalityPercent(), 50.0, 2.0);
}

TEST(Profiler, ValueLocalityIsPerSite)
{
    // Each of 50 iterations loads a constant word and a word that was
    // just overwritten with the loop index.
    ProgramBuilder b("vl");
    std::uint64_t a = b.allocWords(2);
    b.poke(a, 7);
    b.li(1, a);
    b.li(2, 0);
    b.li(3, 1);
    b.li(4, 50);
    auto top = b.newLabel();
    b.bind(top);
    std::uint32_t constant_pc = b.ld(5, 1);
    b.st(1, 8, 2);
    std::uint32_t distinct_pc = b.ld(6, 1, 8);
    b.alu(Opcode::Add, 2, 2, 3);
    b.blt(2, 4, top);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);
    const SiteProfile *constant = profiler.site(constant_pc);
    const SiteProfile *distinct = profiler.site(distinct_pc);
    ASSERT_NE(constant, nullptr);
    ASSERT_NE(distinct, nullptr);
    EXPECT_EQ(constant->count, 50u);
    EXPECT_EQ(distinct->count, 50u);
    EXPECT_DOUBLE_EQ(constant->valueLocalityPercent(), 100.0);
    EXPECT_DOUBLE_EQ(distinct->valueLocalityPercent(), 0.0);
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
    // First load: neither operand of the Add is live, so the walk
    // visits the Add and then the `li 5` producer once per operand —
    // 3 nodes on the signature's budget, 3 on the live statistics'.
    // Second load: both operands are live cuts, so the walk visits the
    // Add alone — 1 + 1.
    EXPECT_EQ(profiler.walkNodes(), 8u);
}

TEST(Profiler, LiveStatisticsOutlastTheSignatureBudget)
{
    // A doubling DAG over one input load: level i computes
    // r(i+2) = r(i+1) + r(i+1), eight levels deep. Every register is
    // clobbered before the final load, so no operand is a Live cut and
    // the walk unfolds the DAG into a full binary tree of 255 Add nodes
    // over 256 input-load leaves.
    constexpr int kLevels = 8;
    ProgramBuilder b("doubling");
    std::uint64_t a = b.allocWords(2);
    b.poke(a, 1);
    b.li(1, a);
    b.ld(2, 1);
    std::vector<std::uint32_t> add_pc;
    for (int i = 0; i < kLevels; ++i)
        add_pc.push_back(b.alu(Opcode::Add, static_cast<Reg>(3 + i),
                               static_cast<Reg>(2 + i),
                               static_cast<Reg>(2 + i)));
    b.st(1, 8, static_cast<Reg>(2 + kLevels));
    for (int i = 0; i <= kLevels; ++i)
        b.li(static_cast<Reg>(2 + i), 0);
    std::uint32_t load_pc = b.ld(20, 1, 8);
    b.halt();
    Program p = b.finish();
    Profiler profiler;
    runProfiled(p, profiler);

    const SiteProfile *site = profiler.site(load_pc);
    ASSERT_NE(site, nullptr);
    ASSERT_EQ(site->trees.size(), 1u);
    EXPECT_EQ(site->trees[0].count, 1u);
    // The signature charges every node it enters, leaves included, and
    // stops after 256: the root plus its whole left subtree. The live
    // statistics charge Add nodes only, so they cover all 255.
    EXPECT_EQ(profiler.walkNodes(), 256u + 255u);
    // The level-1 Add sits 128 times in the tree; the signature enters
    // 64 of them, the live statistics all 128.
    for (int idx = 0; idx < 2; ++idx) {
        const OperandLiveStat *stat = site->liveStat(add_pc[0], idx);
        ASSERT_NE(stat, nullptr);
        EXPECT_EQ(stat->seen, 128u);
        EXPECT_EQ(stat->matches, 0u);
    }
    // The level-7 Add's right-hand instance lies wholly past the
    // signature's budget and is still counted.
    const OperandLiveStat *stat = site->liveStat(add_pc[kLevels - 2], 1);
    ASSERT_NE(stat, nullptr);
    EXPECT_EQ(stat->seen, 2u);
}

/** FNV-1a over everything the compiler reads from a profile. */
std::uint64_t
profileDigest(const Profiler &profiler, const Program &program)
{
    ByteWriter out;
    for (const SiteProfile *site : profiler.sites()) {
        out.put(site->pc);
        out.put(site->count);
        for (std::uint64_t n : site->byLevel)
            out.put(n);
        out.put(site->repeats);
        out.put(site->untracked);
        out.put(static_cast<std::uint8_t>(site->treeOverflow));
        out.put(static_cast<std::uint64_t>(site->trees.size()));
        for (const CandidateTree &tree : site->trees) {
            out.put(tree.signature);
            out.put(tree.count);
        }
        for (std::uint32_t node_pc = 0; node_pc < program.code.size();
             ++node_pc)
            for (int idx = 0; idx < 2; ++idx)
                if (const OperandLiveStat *stat =
                        site->liveStat(node_pc, idx)) {
                    out.put(node_pc);
                    out.put(static_cast<std::uint8_t>(idx));
                    out.put(stat->seen);
                    out.put(stat->matches);
                }
    }
    out.put(profiler.walkNodes());
    out.put(profiler.tracker().productions());
    return fnv1aDigest(out.bytes().data(), out.bytes().size());
}

TEST(Profiler, ProfilesMatchPinnedDigests)
{
    // Whole-profile pins for the workloads whose walks are densest per
    // instruction (the mimics) plus the three synthetic kernels. A
    // change to how the profiler stores or counts anything the
    // compiler reads moves a digest; the walkNodes pins match the
    // committed BENCH_interp.json.
    struct Pin
    {
        const char *name;
        std::uint64_t walkNodes;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"stream-recompute", 160000u, 0xd8535ab7f8036864ull},
        {"hist-stress", 1296000u, 0x871f8f09a7e52c3eull},
        {"compute-bound", 72000u, 0x6d7a630ed2fc9a77ull},
        {"ca", 23340912u, 0x4c625d957f0d6175ull},
        {"fs", 24159152u, 0x007af7a10e810869ull},
        {"fe", 22184666u, 0x29ba916a4cef365cull},
        {"is", 18632486u, 0x438bf04f167e6ed4ull},
    };
    ExperimentConfig config;
    EnergyModel energy(config.energy);
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        Workload workload = makeWorkload(pin.name, 1);
        Profiler profiler;
        Machine machine(workload.program, energy, config.hierarchy);
        machine.setObserver(&profiler);
        machine.run(config.runLimit);
        EXPECT_EQ(profiler.walkNodes(), pin.walkNodes);
        std::uint64_t digest = profileDigest(profiler, workload.program);
        EXPECT_EQ(digest, pin.digest) << "digest 0x" << std::hex << digest;
    }
}

}  // namespace
}  // namespace amnesiac
