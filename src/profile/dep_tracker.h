/**
 * @file
 * Dynamic producer-consumer dependence tracking (§2.1, §4).
 *
 * While a program runs under classic execution, the tracker mirrors
 * dataflow: every value-producing instruction creates an immutable
 * ProducerNode linked to the nodes of its input operands; stores
 * propagate the stored value's node into memory; loads pull it back out.
 * At any load, the node of the loaded value is the root of the dynamic
 * backward slice — exactly the RSlice(v) candidate of §2.1.
 *
 * Nodes live in an index-based arena owned by the tracker: links are
 * 32-bit NodeIds instead of shared_ptrs, and dead subgraphs are recycled
 * through a free list, so steady-state profiling performs no heap
 * allocation per dynamic instruction (the arena reaches a fixed point
 * once every static site's chain shapes have been seen). The arena is
 * a table of fixed-size pages: growth adds a page and never moves a
 * node, so a node reference stays valid across allocation.
 */

#ifndef AMNESIAC_PROFILE_DEP_TRACKER_H
#define AMNESIAC_PROFILE_DEP_TRACKER_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.h"
#include "util/logging.h"

namespace amnesiac {

/** Arena index of a ProducerNode (see DepTracker). */
using NodeId = std::uint32_t;

/** "No producer" — the untracked origin (initial register state). */
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/** Width of ProducerNode::seq; DepTracker asserts that it fits. */
inline constexpr unsigned kSeqBits = 40;

/**
 * One dynamic value production. Immutable once created, except for
 * its reference count, which DepTracker keeps.
 *
 * 32 bytes: only what varies per dynamic instance is stored. The static
 * operand fields (rd, rs1, rs2, imm) are read from the instruction at
 * `pc` in the profiled program. `seq`, `kind`, `op` and `depth` share
 * one 64-bit word.
 */
struct ProducerNode
{
    /** What kind of production this is. */
    enum class Kind : std::uint8_t {
        /// A sliceable (register-to-register) instruction.
        Alu,
        /// A load whose value had no tracked producer: a read-only
        /// program input (§2.2 case i).
        InputLoad,
        /// Depth-cap stub: stands in for a production whose own inputs
        /// were truncated. Value and site are preserved (so Live cuts
        /// and signatures above it behave exactly like the real node);
        /// it cannot be expanded into a slice.
        Truncated,
    };

    /** The produced value (Live cuts, diagnostics, dry-run seeding). */
    std::uint64_t value = 0;
    /** Global dynamic sequence number (monotonic per production). */
    std::uint64_t seq : kSeqBits = 0;
    Kind kind : 8 = Kind::Alu;
    Opcode op : 8 = Opcode::Nop;
    /** Longest producer chain below (and including) this node. Chains
     * are cut at kMaxChainDepth — far beyond any buildable slice — so
     * node graphs stay bounded and reclamation never walks deeply. */
    std::uint16_t depth : 8 = 1;
    std::uint32_t pc = 0;  ///< static site of the production
    /** Producers of the input operands; kNoNode = untracked origin
     * (initial register state). */
    NodeId in1 = kNoNode;
    NodeId in2 = kNoNode;
    /** Registers, memory words, parent links and pins holding this
     * node; 0 once it is on the free list. */
    std::uint32_t refs = 0;

    /** Number of producer links this node carries (0..2). */
    int
    fanIn() const
    {
        if (kind != Kind::Alu)
            return 0;
        return numSources(op);
    }
};

static_assert(sizeof(ProducerNode) == 32, "ProducerNode must stay 32 bytes");

/** Producer-chain depth limit (see ProducerNode::depth). */
inline constexpr std::uint16_t kMaxChainDepth = 192;
static_assert(kMaxChainDepth < 256, "ProducerNode::depth has 8 bits");

/** Tighter limit for self-recurrent chains (a node consuming a prior
 * production of its own static site, e.g. loop counters, accumulators,
 * LCG state): such chains can never be usefully recomputed beyond
 * trivial depth — their slice is their entire history. */
inline constexpr std::uint16_t kSelfChainDepth = 8;

/**
 * Tracks producers for every architectural register and memory word
 * during one classic run. Fed by the Profiler observer.
 *
 * Node lifetime is reference-counted over the arena: registers, memory
 * words, parent links, and explicit pin() calls hold references; a node
 * whose last reference drops is recycled (its slot returns to the free
 * list, cascading iteratively through its children). The tracker — and
 * therefore every NodeId it handed out — is confined to one thread.
 */
class DepTracker
{
  public:
    /** Nodes per arena page (a power of two). */
    static constexpr unsigned kPageBits = 14;
    static constexpr std::uint32_t kPageNodes = 1u << kPageBits;

    DepTracker() { _regs.fill(kNoNode); }

    /** Record execution of a sliceable instruction. */
    void onAlu(std::uint32_t pc, const Instruction &instr,
               std::uint64_t result);

    /** Record a load: either attaches the stored value's producer to the
     * destination register or creates an InputLoad node. */
    void onLoad(std::uint32_t pc, const Instruction &instr,
                std::uint64_t addr, std::uint64_t value);

    /**
     * Record a production the static pruner proved can never appear in
     * a surviving slice tree: the destination register is pointed at a
     * shared opaque sentinel instead of a real linked node. No operand
     * evaluation and no per-instance allocation, but the sequence
     * number advances as for a real node, so every real production
     * carries the same seq under any prune mask — the trees the builder
     * sees, seqs included, are byte-for-byte the same as in an unpruned
     * run (the sentinel, like an untracked origin, only ever flows into
     * loads whose analysis is itself skipped).
     */
    void onOpaque(Reg rd);

    /** Record a store: memory inherits the stored value's producer. */
    void onStore(const Instruction &instr, std::uint64_t addr);

    /** Producer of the current value of register r (may be kNoNode). */
    NodeId regProducer(Reg r) const
    {
        AMNESIAC_ASSERT(r < kNumRegs, "register index out of range");
        return _regs[r];
    }

    /** Producer of the value at a memory word (kNoNode if untracked). */
    NodeId memProducer(std::uint64_t addr) const
    {
        std::uint64_t word = addr / 8;
        return word < _mem.size() ? _mem[word] : kNoNode;
    }

    /** The node behind an id. Valid until its last reference drops. */
    const ProducerNode &node(NodeId id) const
    {
        AMNESIAC_ASSERT(id < _size, "bad node id");
        return slot(id);
    }

    /**
     * Take an extra reference on a node, keeping it (and everything
     * below it) alive past register/memory overwrites — used for
     * representative trees held across the whole profiling run. Pins
     * are never released individually; they die with the tracker.
     */
    void pin(NodeId id)
    {
        if (id != kNoNode)
            ref(id);
    }

    /** Linked (non-opaque) dynamic productions so far. */
    std::uint64_t productions() const { return _seq - _opaqueSeqs; }

    /** Arena high-water mark in nodes (monitoring / allocation tests). */
    std::size_t arenaSize() const { return _size; }

    /** Currently recycled slots (monitoring / allocation tests). */
    std::size_t freeCount() const { return _freeCount; }

  private:
    /** One arena page of nodes. */
    struct Page
    {
        std::array<ProducerNode, kPageNodes> nodes;
    };

    /**
     * Pages are mapped from the OS one by one, not taken from malloc,
     * so a dead tracker's memory leaves the process at once. glibc
     * serves a block this size from the calling thread's heap once its
     * dynamic mmap threshold has risen past it, and keeps the freed
     * heap resident for that thread alone: the workers of a parallel
     * suite then each held their largest profile's arena, and the
     * process peak depended on which worker had compiled what.
     */
    struct PageUnmap
    {
        void operator()(Page *page) const;
    };
    using PagePtr = std::unique_ptr<Page, PageUnmap>;
    static PagePtr mapPage();

    ProducerNode &slot(NodeId id)
    {
        return _pages[id >> kPageBits]->nodes[id & (kPageNodes - 1)];
    }
    const ProducerNode &slot(NodeId id) const
    {
        return _pages[id >> kPageBits]->nodes[id & (kPageNodes - 1)];
    }
    /** The next sequence number (asserted to fit ProducerNode::seq). */
    std::uint64_t nextSeq()
    {
        AMNESIAC_ASSERT(_seq + 1 < (std::uint64_t{1} << kSeqBits),
                        "sequence number outgrew ProducerNode::seq");
        return ++_seq;
    }

    /** Fresh slot with refcount 1 (free list first, then growth). */
    NodeId alloc();

    void ref(NodeId id)
    {
        AMNESIAC_ASSERT(id < _size && slot(id).refs > 0, "bad ref");
        ++slot(id).refs;
    }

    /** Drop one reference; reclaims the node (and, iteratively, any
     * children this was the last holder of) when it hits zero. */
    void unref(NodeId id);

    /** Point register r at `id` (ownership transferred from caller),
     * releasing whatever the register held before. */
    void setReg(Reg r, NodeId id)
    {
        NodeId old = _regs[r];
        _regs[r] = id;
        if (old != kNoNode)
            unref(old);
    }

    std::vector<PagePtr> _pages;
    std::uint32_t _size = 0;  ///< slots ever handed out (high-water)
    /** Recycled slots, chained through their `in1` links (LIFO). */
    NodeId _freeHead = kNoNode;
    std::uint32_t _freeCount = 0;
    std::vector<NodeId> _reclaim;  ///< scratch for iterative unref
    std::array<NodeId, kNumRegs> _regs;
    /** Producer per memory word (addr / 8), grown by stores; words at
     * or past the end have no producer. */
    std::vector<NodeId> _mem;
    std::uint64_t _seq = 0;
    /** Sequence numbers taken by opaque productions. */
    std::uint64_t _opaqueSeqs = 0;
    /** Shared sentinel for onOpaque (lazily allocated; the tracker's
     * own reference keeps it alive for the tracker's lifetime). */
    NodeId _opaque = kNoNode;
};

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_DEP_TRACKER_H
