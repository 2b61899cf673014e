/**
 * @file
 * Recomputation slice (RSlice, §2.1): the compiler-side representation
 * of the backward slice that regenerates one load's value, with
 * per-operand sourcing decisions and the statistics the evaluation
 * reports (length for Fig 6, non-recomputable inputs for Fig 7, §3.4
 * storage bounds).
 */

#ifndef AMNESIAC_CORE_RSLICE_H
#define AMNESIAC_CORE_RSLICE_H

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"

namespace amnesiac {

/** One source operand of a recomputing instruction. */
struct SliceOperand
{
    /** Where the value comes from at recomputation time. */
    OperandSource source = OperandSource::Live;
    /** Architectural register the replica names (original encoding). */
    Reg reg = 0;
    /** For Slice sourcing: index (within RSlice::instrs) of the
     * producing recomputing instruction. */
    std::int32_t producerIndex = -1;

    bool operator==(const SliceOperand &) const = default;
};

/** One recomputing instruction — a replica of a producer (§2.1). */
struct SliceInstr
{
    /** Static site of the original producer instruction. */
    std::uint32_t origPc = 0;
    Opcode op = Opcode::Nop;
    Reg rd = 0;
    std::int64_t imm = 0;
    std::array<SliceOperand, 2> ops{};
    int numOps = 0;
    /** Tree level: root = 0, its producers 1, ... (Fig 1). */
    int level = 0;
    /** Dynamic sequence number of the profiled production; instrs are
     * emitted in ascending seq order, which provably replays the
     * original def-use interleaving under register renaming. */
    std::uint64_t seq = 0;

    /** True if any operand reads the history table. */
    bool hasHistOperand() const;

    /** True if no operand comes from another slice instruction —
     * i.e. this is a leaf of the RSlice tree (§2.1). */
    bool isLeaf() const;

    bool operator==(const SliceInstr &) const = default;
};

/** A complete recomputation slice for one load site. */
struct RSlice
{
    /** The (pre-rewrite) pc of the load this slice replaces. */
    std::uint32_t loadPc = 0;
    /** Recomputing instructions, ascending dynamic order; the last one
     * is the root P(v) whose result is the recomputed value. */
    std::vector<SliceInstr> instrs;

    // --- derived statistics (filled by computeStats()) ---
    std::uint32_t height = 0;
    std::uint32_t leafCount = 0;
    std::uint32_t histLeafCount = 0;
    std::uint32_t histOperandCount = 0;

    // --- compiler estimates (filled by the compiler) ---
    double ercEstimate = 0.0;  ///< §3.1.1 recomputation energy
    double eldEstimate = 0.0;  ///< §3.1.1 probabilistic load energy

    // --- profiling annotations (filled by the compiler; feed the
    //     Table 5 / Fig 8 reports) ---
    std::uint64_t profCount = 0;          ///< dynamic loads at the site
    std::array<double, 3> profResidence{};///< Pr_L1/Pr_L2/Pr_Mem
    double valueLocalityPct = 0.0;        ///< §5.6 last-value locality
    double dryRunMatchRate = 0.0;         ///< functional validation

    /** Number of recomputing instructions (the Fig 6 metric). */
    std::uint32_t length() const
    {
        return static_cast<std::uint32_t>(instrs.size());
    }

    /** Index of the root instruction. */
    std::size_t rootIndex() const { return instrs.size() - 1; }

    /** Recompute height/leaf/hist statistics from the instrs. */
    void computeStats();

    /** True if at least one leaf needs a non-recomputable input
     * checkpoint (the Fig 7 "w/ nc" class). */
    bool hasNonRecomputableInputs() const { return histLeafCount > 0; }

    /** Static sites that need a REC inserted before them, with the
     * slice-instr indexes each REC checkpoints (§3.1.2). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> capturePoints()
        const;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_RSLICE_H
