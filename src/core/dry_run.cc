#include "core/dry_run.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace amnesiac {

namespace {

/** Per-pc (CSR) table of `entries`, each (pc, item), keeping their
 * order within a pc. */
template <typename T>
void
buildPcTable(std::size_t num_pcs,
             const std::vector<std::pair<std::uint32_t, T>> &entries,
             std::vector<std::uint32_t> &start, std::vector<T> &items)
{
    start.assign(num_pcs + 1, 0);
    for (const auto &entry : entries)
        ++start[entry.first + 1];
    for (std::size_t pc = 0; pc < num_pcs; ++pc)
        start[pc + 1] += start[pc];
    std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
    items.resize(entries.size());
    for (const auto &[pc, item] : entries)
        items[next[pc]++] = item;
}

}  // namespace

DryRunValidator::DryRunValidator(const std::vector<std::vector<RSlice>> &sets)
    : _sliceStart{0}, _distinct(sets.size())
{
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_load_pc;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> loads;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> captures;
    std::size_t num_pcs = 0;
    std::size_t max_length = 0;
    for (std::size_t s = 0; s < sets.size(); ++s) {
        std::unordered_set<std::uint32_t> load_pcs;
        for (const RSlice &slice : sets[s]) {
            AMNESIAC_ASSERT(load_pcs.insert(slice.loadPc).second,
                            "two candidates for one load site");
            std::vector<std::uint32_t> &at_pc = by_load_pc[slice.loadPc];
            auto same = std::find_if(
                at_pc.begin(), at_pc.end(), [&](std::uint32_t d) {
                    return std::equal(_instrs.begin() + _sliceStart[d],
                                      _instrs.begin() + _sliceStart[d + 1],
                                      slice.instrs.begin(),
                                      slice.instrs.end());
                });
            if (same != at_pc.end()) {
                _distinct[s].push_back(*same);
                continue;
            }
            AMNESIAC_ASSERT(!slice.instrs.empty(), "empty candidate slice");
            for (std::size_t i = 0; i < slice.instrs.size(); ++i)
                for (int k = 0; k < slice.instrs[i].numOps; ++k) {
                    const SliceOperand &op = slice.instrs[i].ops[k];
                    AMNESIAC_ASSERT(op.source != OperandSource::Slice ||
                                        (op.producerIndex >= 0 &&
                                         static_cast<std::size_t>(
                                             op.producerIndex) < i),
                                    "slice operand names no earlier "
                                    "instruction");
                }
            const auto d = static_cast<std::uint32_t>(_results.size());
            const std::uint32_t first = _sliceStart.back();
            at_pc.push_back(d);
            _distinct[s].push_back(d);
            _results.emplace_back();
            _instrs.insert(_instrs.end(), slice.instrs.begin(),
                           slice.instrs.end());
            _sliceStart.push_back(static_cast<std::uint32_t>(_instrs.size()));
            loads.emplace_back(slice.loadPc, d);
            num_pcs = std::max<std::size_t>(num_pcs, slice.loadPc + 1ull);
            for (const auto &[orig_pc, instr_idx] : slice.capturePoints()) {
                captures.emplace_back(orig_pc, first + instr_idx);
                num_pcs = std::max<std::size_t>(num_pcs, orig_pc + 1ull);
            }
            max_length = std::max(max_length, slice.instrs.size());
        }
    }
    buildPcTable(num_pcs, loads, _loadStart, _loadSlices);
    buildPcTable(num_pcs, captures, _captureStart, _captureSlots);
    _hist.assign(_instrs.size(), {});
    _histWritten.assign(_instrs.size(), 0);
    _values.assign(max_length, 0);
}

void
DryRunValidator::onExec(const Machine &m, std::uint32_t pc,
                        const Instruction &)
{
    if (pc >= _captureStart.size() - 1)
        return;
    // REC-before semantics: snapshot the replica's source registers as
    // they are when the original instruction is about to execute.
    for (std::uint32_t c = _captureStart[pc]; c < _captureStart[pc + 1];
         ++c) {
        const std::uint32_t slot = _captureSlots[c];
        const SliceInstr &leaf = _instrs[slot];
        std::array<std::uint64_t, 2> &snap = _hist[slot];
        snap[0] = leaf.numOps >= 1 ? m.reg(leaf.ops[0].reg) : 0;
        snap[1] = leaf.numOps >= 2 ? m.reg(leaf.ops[1].reg) : 0;
        _histWritten[slot] = 1;
    }
}

void
DryRunValidator::onLoad(const Machine &m, std::uint32_t pc,
                        std::uint64_t, std::uint64_t value, MemLevel)
{
    if (pc >= _loadStart.size() - 1)
        return;
    for (std::uint32_t l = _loadStart[pc]; l < _loadStart[pc + 1]; ++l)
        evaluate(m, _loadSlices[l], value);
}

void
DryRunValidator::evaluate(const Machine &m, std::uint32_t slice,
                          std::uint64_t value)
{
    DryRunSiteResult &result = _results[slice];
    ++result.evaluated;
    const std::uint32_t first = _sliceStart[slice];
    const std::uint32_t end = _sliceStart[slice + 1];
    for (std::uint32_t i = first; i < end; ++i) {
        const SliceInstr &instr = _instrs[i];
        std::uint64_t in[2] = {0, 0};
        for (int k = 0; k < instr.numOps; ++k) {
            const SliceOperand &op = instr.ops[k];
            switch (op.source) {
              case OperandSource::Slice:
                in[k] = _values[static_cast<std::size_t>(op.producerIndex)];
                break;
              case OperandSource::Live:
                in[k] = m.reg(op.reg);
                break;
              case OperandSource::Hist:
                if (!_histWritten[i]) {
                    ++result.histMisses;
                    return;  // unmatched instance
                }
                in[k] = _hist[i][static_cast<std::size_t>(k)];
                break;
            }
        }
        _values[i - first] =
            Machine::evalAlu(instr.op, in[0], in[1], instr.imm);
    }
    if (_values[end - first - 1] == value)
        ++result.matched;
}

const DryRunSiteResult &
DryRunValidator::result(std::size_t set, std::size_t index) const
{
    AMNESIAC_ASSERT(set < _distinct.size() && index < _distinct[set].size(),
                    "no such candidate");
    return _results[_distinct[set][index]];
}

}  // namespace amnesiac
