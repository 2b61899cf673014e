/**
 * @file
 * Tests for the dynamic dependence tracker: producer linking through
 * registers and memory, input-load boundaries, shared subtrees, depth
 * capping, arena recycling, and the paged arena layout. Tree structure
 * is checked directly on the nodes (kind, site, opcode, links).
 */

#include <vector>

#include <gtest/gtest.h>

#include "profile/dep_tracker.h"

namespace amnesiac {
namespace {

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

/** Expect the trees under `a` in `ta` and `b` in `tb` to match node
 * for node in kind, site, opcode and links (values may differ). */
void
expectSameShape(const DepTracker &ta, NodeId a, const DepTracker &tb,
                NodeId b)
{
    ASSERT_EQ(a == kNoNode, b == kNoNode);
    if (a == kNoNode)
        return;
    const ProducerNode &x = ta.node(a);
    const ProducerNode &y = tb.node(b);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.op, y.op);
    expectSameShape(ta, x.in1, tb, y.in1);
    expectSameShape(ta, x.in2, tb, y.in2);
}

TEST(DepTracker, LinksProducersThroughRegisters)
{
    DepTracker t;
    t.onAlu(10, alu(Opcode::Li, 1, 0, 0, 5), 5);
    t.onAlu(11, alu(Opcode::Li, 2, 0, 0, 7), 7);
    t.onAlu(12, alu(Opcode::Add, 3, 1, 2), 12);
    NodeId root = t.regProducer(3);
    ASSERT_NE(root, kNoNode);
    EXPECT_EQ(t.node(root).pc, 12u);
    EXPECT_EQ(t.node(root).value, 12u);
    ASSERT_NE(t.node(root).in1, kNoNode);
    ASSERT_NE(t.node(root).in2, kNoNode);
    EXPECT_EQ(t.node(t.node(root).in1).pc, 10u);
    EXPECT_EQ(t.node(t.node(root).in2).pc, 11u);
    EXPECT_EQ(t.node(root).depth, 2);
    EXPECT_EQ(t.node(root).kind, ProducerNode::Kind::Alu);
    EXPECT_EQ(t.node(root).op, Opcode::Add);
    for (NodeId leaf : {t.node(root).in1, t.node(root).in2}) {
        EXPECT_EQ(t.node(leaf).kind, ProducerNode::Kind::Alu);
        EXPECT_EQ(t.node(leaf).op, Opcode::Li);
        EXPECT_EQ(t.node(leaf).fanIn(), 0);
    }
}

TEST(DepTracker, SharedSubtreeIsOneNode)
{
    // r6 = (r3 * r4) - r3 with r3 = r1 + r2: both uses of r3 link the
    // very same node, so the tree is a DAG, not a copy per use.
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onAlu(2, alu(Opcode::Li, 2, 0, 0, 2), 2);
    t.onAlu(3, alu(Opcode::Add, 3, 1, 2), 3);
    t.onAlu(4, alu(Opcode::Li, 4, 0, 0, 4), 4);
    t.onAlu(5, alu(Opcode::Mul, 5, 3, 4), 12);
    t.onAlu(6, alu(Opcode::Sub, 6, 5, 3), 9);
    const ProducerNode &sub = t.node(t.regProducer(6));
    EXPECT_EQ(sub.op, Opcode::Sub);
    EXPECT_EQ(sub.pc, 6u);
    const ProducerNode &mul = t.node(sub.in1);
    EXPECT_EQ(mul.op, Opcode::Mul);
    EXPECT_EQ(mul.pc, 5u);
    EXPECT_EQ(mul.in1, sub.in2);
    EXPECT_EQ(mul.in1, t.regProducer(3));
    EXPECT_EQ(t.node(mul.in2).pc, 4u);
    const ProducerNode &add = t.node(sub.in2);
    EXPECT_EQ(add.op, Opcode::Add);
    EXPECT_EQ(t.node(add.in1).pc, 1u);
    EXPECT_EQ(t.node(add.in2).pc, 2u);
    EXPECT_EQ(sub.depth, 4);
}

TEST(DepTracker, StoreAndLoadPropagateProduction)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 2, 0, 0, 9), 9);
    Instruction st;
    st.op = Opcode::St;
    st.rs1 = 1;
    st.rs2 = 2;
    t.onStore(st, 64);
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 5;
    t.onLoad(3, ld, 64, 9);
    // The loaded register holds the very same production.
    EXPECT_EQ(t.regProducer(5), t.memProducer(64));
    EXPECT_EQ(t.node(t.regProducer(5)).pc, 1u);
}

TEST(DepTracker, UntrackedLoadBecomesInputLeaf)
{
    DepTracker t;
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 4;
    t.onLoad(7, ld, 128, 42);
    NodeId id = t.regProducer(4);
    ASSERT_NE(id, kNoNode);
    const ProducerNode &node = t.node(id);
    EXPECT_EQ(node.kind, ProducerNode::Kind::InputLoad);
    EXPECT_EQ(node.pc, 7u);
    EXPECT_EQ(node.op, Opcode::Ld);
    EXPECT_EQ(node.value, 42u);
    EXPECT_EQ(node.fanIn(), 0);

    // A consumer links the input leaf; an operand register nothing
    // ever wrote stays an untracked link.
    t.onAlu(8, alu(Opcode::Add, 5, 4, 6), 42);
    const ProducerNode &add = t.node(t.regProducer(5));
    EXPECT_EQ(add.kind, ProducerNode::Kind::Alu);
    EXPECT_EQ(add.in1, id);
    EXPECT_EQ(add.in2, kNoNode);
    EXPECT_EQ(add.depth, 2);
}

TEST(DepTracker, EquivalentTreesHaveTheSameShape)
{
    auto build = [](std::uint64_t a, std::uint64_t b) {
        DepTracker t;
        t.onAlu(10, alu(Opcode::Li, 1, 0, 0,
                        static_cast<std::int64_t>(a)), a);
        t.onAlu(11, alu(Opcode::Li, 2, 0, 0,
                        static_cast<std::int64_t>(b)), b);
        t.onAlu(12, alu(Opcode::Mul, 3, 1, 2), a * b);
        return t;
    };
    // Same static shape, different values: the same nodes.
    const DepTracker small = build(3, 4);
    const DepTracker large = build(100, 200);
    expectSameShape(small, small.regProducer(3), large,
                    large.regProducer(3));
    EXPECT_NE(small.node(small.regProducer(3)).value,
              large.node(large.regProducer(3)).value);
}

TEST(DepTracker, SelfRecurrentChainsAreStubbed)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 0), 0);
    // A loop counter: add r1, r1, r1 executed many times at one pc.
    for (int i = 0; i < 100; ++i)
        t.onAlu(2, alu(Opcode::Add, 1, 1, 1), i + 1);
    NodeId id = t.regProducer(1);
    ASSERT_NE(id, kNoNode);
    // Depth stays bounded by the self-chain cap, far below 100.
    EXPECT_LE(t.node(id).depth, kSelfChainDepth + 1);
    // Walking to the cut must find a value-preserving stub.
    NodeId walk = id;
    while (t.node(walk).in1 != kNoNode &&
           t.node(t.node(walk).in1).kind == ProducerNode::Kind::Alu)
        walk = t.node(walk).in1;
    NodeId stub = t.node(walk).in1;
    ASSERT_NE(stub, kNoNode);
    EXPECT_EQ(t.node(stub).kind, ProducerNode::Kind::Truncated);
    EXPECT_EQ(t.node(stub).pc, 2u);  // stub preserves the site
    EXPECT_EQ(t.node(stub).op, Opcode::Add);
    EXPECT_EQ(t.node(stub).in1, kNoNode);
    EXPECT_EQ(t.node(stub).in2, kNoNode);
}

TEST(DepTracker, CrossPcChainsCapAtGlobalDepth)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    // Alternate two pcs so the self-chain rule does not fire.
    for (int i = 0; i < 2000; ++i)
        t.onAlu(2 + (i & 1), alu(Opcode::Add, 1, 1, 1),
                static_cast<std::uint64_t>(i));
    EXPECT_LE(t.node(t.regProducer(1)).depth, kMaxChainDepth);
    // The chain alternates the two sites and ends, within the cap, in a
    // link-free stub.
    NodeId walk = t.regProducer(1);
    int links = 0;
    while (t.node(walk).kind == ProducerNode::Kind::Alu) {
        const ProducerNode &n = t.node(walk);
        EXPECT_EQ(n.op, Opcode::Add);
        ASSERT_NE(n.in1, kNoNode);
        // add r1, r1, r1: both links name r1's producer (at the cap
        // each link gets a stub of its own).
        ASSERT_NE(n.in2, kNoNode);
        EXPECT_EQ(t.node(n.in1).pc, t.node(n.in2).pc);
        EXPECT_NE(t.node(n.in1).pc, n.pc);
        walk = n.in1;
        ++links;
    }
    EXPECT_EQ(t.node(walk).kind, ProducerNode::Kind::Truncated);
    EXPECT_EQ(t.node(walk).in1, kNoNode);
    EXPECT_GT(links, 0);
    EXPECT_LT(links, kMaxChainDepth);
}

TEST(DepTracker, StubsPreserveValues)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 0), 0);
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        last = i + 1;
        t.onAlu(2, alu(Opcode::Add, 1, 1, 1), last);
    }
    // Every node in the chain, stub or not, reports the value it
    // produced (Live cuts and signatures depend on this).
    NodeId walk = t.regProducer(1);
    std::uint64_t expect = last;
    while (walk != kNoNode) {
        EXPECT_EQ(t.node(walk).value, expect);
        --expect;
        walk = t.node(walk).in1;
    }
}

TEST(DepTracker, SequenceNumbersAreMonotonic)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onAlu(2, alu(Opcode::Li, 2, 0, 0, 2), 2);
    t.onAlu(3, alu(Opcode::Add, 3, 1, 2), 3);
    EXPECT_LT(t.node(t.regProducer(1)).seq, t.node(t.regProducer(3)).seq);
    EXPECT_EQ(t.productions(), 3u);
}

TEST(DepTracker, OpaqueProductionsKeepTheSequence)
{
    // A pruned (opaque) production takes the seq a real node would, so
    // later productions are numbered the same with and without masks.
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onOpaque(2);
    t.onAlu(3, alu(Opcode::Add, 3, 1, 1), 2);
    EXPECT_EQ(t.node(t.regProducer(3)).seq, 3u);
    EXPECT_EQ(t.productions(), 2u);
}

TEST(DepTracker, ArenaRecyclesDeadSubgraphs)
{
    DepTracker t;
    // Overwriting a register's production releases the old chain; the
    // arena must reuse its slots instead of growing.
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 1), 1);
    t.onAlu(2, alu(Opcode::Li, 2, 0, 0, 2), 2);
    for (int i = 0; i < 1000; ++i)
        t.onAlu(3, alu(Opcode::Add, 4, 1, 2), 3);  // rd not an input
    // r4's previous tree dies on every overwrite: steady-state arena
    // size is far below one slot per production.
    EXPECT_LT(t.arenaSize(), 64u);
}

TEST(DepTracker, PinKeepsSubgraphAlive)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 1, 0, 0, 5), 5);
    t.onAlu(2, alu(Opcode::Add, 2, 1, 1), 10);
    NodeId pinned = t.regProducer(2);
    t.pin(pinned);
    // Clobber both registers: without the pin the whole tree would be
    // recycled and the id would dangle.
    t.onAlu(3, alu(Opcode::Li, 1, 0, 0, 0), 0);
    t.onAlu(4, alu(Opcode::Li, 2, 0, 0, 0), 0);
    EXPECT_EQ(t.node(pinned).value, 10u);
    EXPECT_EQ(t.node(pinned).pc, 2u);
    ASSERT_NE(t.node(pinned).in1, kNoNode);
    EXPECT_EQ(t.node(t.node(pinned).in1).pc, 1u);
}

// --- paged arena: nodes stay 32 bytes, pages never move, and the
// dense memory table has no producer past its end. ---

TEST(DepTracker, ProducerNodeIsCompact)
{
    EXPECT_LE(sizeof(ProducerNode), 32u);
}

/** Keep `count` productions alive at once: each one is pinned. */
std::vector<NodeId>
pinnedChain(DepTracker &t, std::uint32_t count)
{
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < count; ++i) {
        t.onAlu(i, alu(Opcode::Li, 1, 0, 0, i), i);
        ids.push_back(t.regProducer(1));
        t.pin(ids.back());
    }
    return ids;
}

TEST(DepTracker, GrowthAcrossPagesKeepsEarlierNodes)
{
    DepTracker t;
    const std::uint32_t count = 3 * DepTracker::kPageNodes + 17;
    // Hold a reference into the first page across the growth of every
    // later page: pages never move.
    t.onAlu(0, alu(Opcode::Li, 2, 0, 0, 99), 99);
    const ProducerNode &first = t.node(t.regProducer(2));
    std::vector<NodeId> ids = pinnedChain(t, count);
    EXPECT_GE(t.arenaSize(), count);
    EXPECT_EQ(first.value, 99u);
    EXPECT_EQ(first.pc, 0u);
    for (std::uint32_t i = 0; i < count; ++i) {
        ASSERT_EQ(ids[i], i + 1);  // ids are dense and never reassigned
        EXPECT_EQ(t.node(ids[i]).pc, i);
        EXPECT_EQ(t.node(ids[i]).value, i);
        EXPECT_EQ(t.node(ids[i]).seq, i + 2);
    }
}

TEST(DepTracker, MemProducerPastHighestStoredWordIsUntracked)
{
    DepTracker t;
    t.onAlu(1, alu(Opcode::Li, 2, 0, 0, 9), 9);
    Instruction st;
    st.op = Opcode::St;
    st.rs2 = 2;
    t.onStore(st, 8 * 100);
    EXPECT_NE(t.memProducer(8 * 100), kNoNode);
    EXPECT_EQ(t.memProducer(8 * 99), kNoNode);
    EXPECT_EQ(t.memProducer(8 * 101), kNoNode);
    EXPECT_EQ(t.memProducer(1ull << 40), kNoNode);

    // A load past the end has no producer: it becomes an input leaf.
    Instruction ld;
    ld.op = Opcode::Ld;
    ld.rd = 5;
    t.onLoad(3, ld, 8 * 4096, 7);
    EXPECT_EQ(t.node(t.regProducer(5)).kind,
              ProducerNode::Kind::InputLoad);
}

}  // namespace
}  // namespace amnesiac
