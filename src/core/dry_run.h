/**
 * @file
 * Functional dry-run validation of candidate slices.
 *
 * Before swapping a load, the compiler replays a classic run with a
 * shadow history table and evaluates every candidate slice at every
 * dynamic instance of its load, comparing the recomputed value with the
 * actually loaded one. Sites whose slices do not reproduce the loaded
 * value are rejected. This is a soundness guard the paper's
 * proof-of-concept does not include (see DESIGN.md §5).
 */

#ifndef AMNESIAC_CORE_DRY_RUN_H
#define AMNESIAC_CORE_DRY_RUN_H

#include <array>
#include <cstdint>
#include <vector>

#include "core/rslice.h"
#include "sim/machine.h"

namespace amnesiac {

/** Per-candidate outcome of the validation pass. */
struct DryRunSiteResult
{
    std::uint64_t evaluated = 0;
    std::uint64_t matched = 0;
    /** Instances where a needed shadow-Hist entry was not yet written. */
    std::uint64_t histMisses = 0;

    double
    matchRate() const
    {
        return evaluated == 0
            ? 0.0
            : static_cast<double>(matched) / static_cast<double>(evaluated);
    }
};

/**
 * Observer implementing the validation pass over the *original*
 * (pre-rewrite) binary. One replay validates several candidate sets
 * (AmnesicCompiler::compileSets): a slice that several sets share (same
 * load pc, equal instrs) is kept and evaluated once, and every set reads
 * its result.
 */
class DryRunValidator final : public ExecutionObserver
{
  public:
    /** @param sets candidate sets, each with at most one slice per load
     *        pc; the validator copies what it needs from them */
    explicit DryRunValidator(const std::vector<std::vector<RSlice>> &sets);

    void onExec(const Machine &m, std::uint32_t pc,
                const Instruction &instr) override;
    void onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;

    /** Result for candidate `index` of set `set`. */
    const DryRunSiteResult &result(std::size_t set, std::size_t index) const;

  private:
    void evaluate(const Machine &m, std::uint32_t slice, std::uint64_t value);

    /** Every distinct slice's instrs, concatenated: slice d owns
     * [_sliceStart[d], _sliceStart[d + 1]). An instruction's index here
     * is also its shadow-Hist slot. */
    std::vector<SliceInstr> _instrs;
    std::vector<std::uint32_t> _sliceStart;
    /** Per-pc (CSR) tables: the distinct slices whose load sits at pc p
     * are _loadSlices[_loadStart[p] .. _loadStart[p + 1]); likewise the
     * slots whose REC runs before p (REC-before semantics). */
    std::vector<std::uint32_t> _loadStart;
    std::vector<std::uint32_t> _loadSlices;
    std::vector<std::uint32_t> _captureStart;
    std::vector<std::uint32_t> _captureSlots;
    /** Shadow Hist, one entry per slot, and whether it was written. */
    std::vector<std::array<std::uint64_t, 2>> _hist;
    std::vector<std::uint8_t> _histWritten;
    /** Recomputed values of the slice under evaluation (reused). */
    std::vector<std::uint64_t> _values;
    std::vector<DryRunSiteResult> _results;  ///< per distinct slice
    /** [set][candidate index] -> distinct slice. */
    std::vector<std::vector<std::uint32_t>> _distinct;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_DRY_RUN_H
