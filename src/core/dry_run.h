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
#include <unordered_map>
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
 * (pre-rewrite) binary.
 */
class DryRunValidator final : public ExecutionObserver
{
  public:
    /** @param candidates candidate slices, one per (distinct) load pc;
     *        kept by pointer, so they must outlive the validator (a
     *        temporary is rejected at compile time) */
    explicit DryRunValidator(const std::vector<RSlice> &candidates);
    explicit DryRunValidator(std::vector<RSlice> &&) = delete;

    void onExec(const Machine &m, std::uint32_t pc,
                const Instruction &instr) override;
    void onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;

    /** Result for the candidate replacing the load at `load_pc`. */
    const DryRunSiteResult &result(std::uint32_t load_pc) const;

  private:
    /** Shadow Hist key: (candidate index, slice-instr index). */
    using HistKey = std::uint64_t;
    static HistKey
    histKey(std::size_t cand, std::uint32_t instr_idx)
    {
        return (static_cast<std::uint64_t>(cand) << 32) | instr_idx;
    }

    const std::vector<RSlice> *_candidates;
    /** load pc -> candidate index. */
    std::unordered_map<std::uint32_t, std::size_t> _byLoadPc;
    /** capture pc -> [(candidate, instr index)]. */
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::size_t, std::uint32_t>>>
        _captures;
    std::unordered_map<HistKey, std::array<std::uint64_t, 2>> _shadowHist;
    std::unordered_map<std::uint32_t, DryRunSiteResult> _results;
};

/**
 * Forwards one classic run to several validators, so a single replay
 * validates several candidate sets (AmnesicCompiler::compileSets).
 */
class DryRunTee final : public ExecutionObserver
{
  public:
    explicit DryRunTee(std::vector<DryRunValidator> &validators)
        : _validators(&validators)
    {
    }

    void
    onExec(const Machine &m, std::uint32_t pc,
           const Instruction &instr) override
    {
        for (DryRunValidator &validator : *_validators)
            validator.onExec(m, pc, instr);
    }

    void
    onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
           std::uint64_t value, MemLevel serviced) override
    {
        for (DryRunValidator &validator : *_validators)
            validator.onLoad(m, pc, addr, value, serviced);
    }

  private:
    std::vector<DryRunValidator> *_validators;
};

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_DRY_RUN_H
