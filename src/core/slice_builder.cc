#include "core/slice_builder.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"

namespace amnesiac {

namespace {

/** Is Live sourcing "provable" for operand k of the node's site? */
bool
liveValid(const SiteProfile &site, const ProducerNode &node, int k,
          double threshold)
{
    const OperandLiveStat *stat = site.liveStat(node.pc, k);
    return stat && stat->rate() >= threshold;
}

}  // namespace

SliceBuilder::SliceBuilder(const EnergyModel &energy,
                           const SliceBuilderConfig &config)
    : _energy(&energy), _config(config)
{
}

double
SliceBuilder::recPerLoad(const RSlice &slice, const SiteProfile &site,
                         const Profiler &profile) const
{
    if (site.count == 0)
        return 1.0;
    double total = 0.0;
    for (const auto &[orig_pc, instr_idx] : slice.capturePoints()) {
        (void)instr_idx;
        total += static_cast<double>(profile.execCount(orig_pc));
    }
    return total / static_cast<double>(site.count);
}

std::optional<RSlice>
SliceBuilder::build(const SiteProfile &site, double energy_budget,
                    const Profiler &profile,
                    const Program &program) const
{
    const CandidateTree *top = site.topTree();
    if (!top || top->representative == kNoNode)
        return std::nullopt;
    const DepTracker &tracker = profile.tracker();
    if (tracker.node(top->representative).kind != ProducerNode::Kind::Alu)
        return std::nullopt;

    CostModel cost(*_energy);

    // Materialize the current inclusion frontier into an RSlice.
    auto materialize = [&](const std::vector<std::vector<NodeId>> &levels)
        -> RSlice {
        struct Entry { NodeId node; int level; };
        std::vector<Entry> entries;
        std::unordered_set<NodeId> seen;
        for (std::size_t l = 0; l < levels.size(); ++l) {
            for (NodeId n : levels[l]) {
                if (seen.insert(n).second)
                    entries.push_back({n, static_cast<int>(l)});
            }
        }
        std::sort(entries.begin(), entries.end(),
                  [&](const Entry &a, const Entry &b) {
                      return tracker.node(a.node).seq <
                             tracker.node(b.node).seq;
                  });
        std::unordered_map<NodeId, std::int32_t> index;
        for (std::size_t i = 0; i < entries.size(); ++i)
            index[entries[i].node] = static_cast<std::int32_t>(i);

        RSlice slice;
        slice.loadPc = site.pc;
        slice.instrs.reserve(entries.size());
        for (const Entry &entry : entries) {
            const ProducerNode &node = tracker.node(entry.node);
            const Instruction &orig = program.code[node.pc];
            SliceInstr instr;
            instr.origPc = node.pc;
            instr.op = node.op;
            instr.rd = orig.rd;
            instr.imm = orig.imm;
            instr.level = entry.level;
            instr.seq = node.seq;
            instr.numOps = node.fanIn();
            auto classify = [&](int k, Reg read_reg, NodeId p) {
                SliceOperand &op = instr.ops[k];
                op.reg = read_reg;
                if (p != kNoNode && index.count(p)) {
                    op.source = OperandSource::Slice;
                    op.producerIndex = index[p];
                } else if (liveValid(site, node, k, _config.liveThreshold)) {
                    op.source = OperandSource::Live;
                } else {
                    op.source = OperandSource::Hist;
                }
            };
            if (instr.numOps >= 1)
                classify(0, orig.rs1, node.in1);
            if (instr.numOps >= 2)
                classify(1, orig.rs2, node.in2);
            slice.instrs.push_back(instr);
        }
        slice.computeStats();
        return slice;
    };

    std::vector<std::vector<NodeId>> levels = {{top->representative}};
    std::unordered_set<NodeId> included = {top->representative};
    std::optional<RSlice> best;

    // Growth cost is not monotone: expanding past a Hist-sourced
    // boundary removes its Hist-read and (amortized) REC costs, so a
    // deeper slice can be cheaper than a shallow one. Explore every
    // level up to the hard caps and keep the deepest configuration that
    // fits the budget (the paper's greedy level-by-level growth).
    for (std::uint32_t h = 0;; ++h) {
        RSlice candidate = materialize(levels);
        double erc = cost.estimatedRecomputeEnergy(
            candidate, recPerLoad(candidate, site, profile));
        candidate.ercEstimate = erc;
        candidate.eldEstimate = energy_budget;
        std::uint32_t length = candidate.length();
        bool fits = erc <= energy_budget * _config.budgetMargin &&
                    length <= _config.maxInstrs;
        if (fits)
            best = std::move(candidate);
        if (length > _config.maxInstrs || h >= _config.maxHeight)
            break;

        // Next level: un-included ALU producers of this level's operands
        // that cannot be Live-sourced (Live is free and exact, §2.2).
        std::vector<NodeId> next;
        for (NodeId nid : levels[h]) {
            const ProducerNode &n = tracker.node(nid);
            auto consider = [&](int k, NodeId p) {
                if (p == kNoNode ||
                    tracker.node(p).kind != ProducerNode::Kind::Alu)
                    return;
                if (included.count(p))
                    return;
                if (liveValid(site, n, k, _config.liveThreshold))
                    return;
                included.insert(p);
                next.push_back(p);
            };
            if (n.fanIn() >= 1)
                consider(0, n.in1);
            if (n.fanIn() >= 2)
                consider(1, n.in2);
        }
        if (next.empty())
            break;
        levels.push_back(std::move(next));
    }
    return best;
}

}  // namespace amnesiac
