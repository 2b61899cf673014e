#include "core/dry_run.h"

#include "util/logging.h"

namespace amnesiac {

DryRunValidator::DryRunValidator(const std::vector<RSlice> &candidates)
    : _candidates(&candidates)
{
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        const RSlice &slice = candidates[c];
        AMNESIAC_ASSERT(!_byLoadPc.count(slice.loadPc),
                        "two candidates for one load site");
        _byLoadPc[slice.loadPc] = c;
        for (const auto &[orig_pc, instr_idx] : slice.capturePoints())
            _captures[orig_pc].emplace_back(c, instr_idx);
        _results[slice.loadPc] = DryRunSiteResult{};
    }
}

void
DryRunValidator::onExec(const Machine &m, std::uint32_t pc,
                        const Instruction &instr)
{
    (void)instr;
    auto it = _captures.find(pc);
    if (it == _captures.end())
        return;
    // REC-before semantics: snapshot the replica's source registers as
    // they are when the original instruction is about to execute.
    for (const auto &[cand, instr_idx] : it->second) {
        const SliceInstr &leaf = (*_candidates)[cand].instrs[instr_idx];
        std::array<std::uint64_t, 2> snap{};
        if (leaf.numOps >= 1)
            snap[0] = m.reg(leaf.ops[0].reg);
        if (leaf.numOps >= 2)
            snap[1] = m.reg(leaf.ops[1].reg);
        _shadowHist[histKey(cand, instr_idx)] = snap;
    }
}

void
DryRunValidator::onLoad(const Machine &m, std::uint32_t pc,
                        std::uint64_t addr, std::uint64_t value,
                        MemLevel serviced)
{
    (void)addr;
    (void)serviced;
    auto it = _byLoadPc.find(pc);
    if (it == _byLoadPc.end())
        return;
    const RSlice &slice = (*_candidates)[it->second];
    DryRunSiteResult &result = _results[pc];
    ++result.evaluated;

    std::vector<std::uint64_t> values(slice.instrs.size(), 0);
    for (std::size_t i = 0; i < slice.instrs.size(); ++i) {
        const SliceInstr &instr = slice.instrs[i];
        std::uint64_t in[2] = {0, 0};
        for (int k = 0; k < instr.numOps; ++k) {
            const SliceOperand &op = instr.ops[k];
            switch (op.source) {
              case OperandSource::Slice:
                in[k] = values[static_cast<std::size_t>(op.producerIndex)];
                break;
              case OperandSource::Live:
                in[k] = m.reg(op.reg);
                break;
              case OperandSource::Hist: {
                auto entry =
                    _shadowHist.find(histKey(it->second,
                                             static_cast<std::uint32_t>(i)));
                if (entry == _shadowHist.end()) {
                    ++result.histMisses;
                    return;  // unmatched instance
                }
                in[k] = entry->second[static_cast<std::size_t>(k)];
                break;
              }
            }
        }
        values[i] = Machine::evalAlu(instr.op, in[0], in[1], instr.imm);
    }
    if (values.back() == value)
        ++result.matched;
}

const DryRunSiteResult &
DryRunValidator::result(std::uint32_t load_pc) const
{
    auto it = _results.find(load_pc);
    AMNESIAC_ASSERT(it != _results.end(), "no candidate at this load pc");
    return it->second;
}

}  // namespace amnesiac
