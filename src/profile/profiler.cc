#include "profile/profiler.h"

#include <algorithm>

#include "util/logging.h"

namespace amnesiac {

void
SiteProfile::recordLoad(std::uint64_t value, MemLevel serviced)
{
    if (count > 0 && lastValue == value)
        ++repeats;
    lastValue = value;
    ++count;
    ++byLevel[static_cast<std::size_t>(serviced)];
}

double
SiteProfile::prLevel(MemLevel level) const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(byLevel[static_cast<std::size_t>(level)]) /
           static_cast<double>(count);
}

const CandidateTree *
SiteProfile::topTree() const
{
    const CandidateTree *best = nullptr;
    for (const auto &tree : trees)
        if (!best || tree.count > best->count)
            best = &tree;
    return best;
}

double
SiteProfile::stability() const
{
    const CandidateTree *best = topTree();
    if (!best || count == 0)
        return 0.0;
    return static_cast<double>(best->count) / static_cast<double>(count);
}

double
SiteProfile::valueLocalityPercent() const
{
    if (count < 2)
        return 0.0;
    return 100.0 * static_cast<double>(repeats) /
           static_cast<double>(count - 1);
}

Profiler::Profiler(const ProfilerConfig &config) : _config(config) {}

void
Profiler::onExec(const Machine &m, std::uint32_t pc,
                 const Instruction &instr)
{
    if (pc >= _execCounts.size()) [[unlikely]]
        _execCounts.resize(
            std::max<std::size_t>(pc + 1, m.program().code.size()));
    ++_execCounts[pc];
    if (!isSliceable(instr.op))
        return;
    if (pc < _config.opaqueProduction.size() &&
        _config.opaqueProduction[pc]) {
        _tracker.onOpaque(instr.rd);
        return;
    }
    // Mirror the execution so the tracker can link producers. The
    // observer fires pre-execution, so source registers still hold
    // the instruction's inputs.
    std::uint64_t result = Machine::evalAlu(
        instr.op, m.reg(instr.rs1 < kNumRegs ? instr.rs1 : 0),
        m.reg(instr.rs2 < kNumRegs ? instr.rs2 : 0), instr.imm);
    _tracker.onAlu(pc, instr, result);
}

void
Profiler::onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                 std::uint64_t value, MemLevel serviced)
{
    if (pc >= _sites.size())
        _sites.resize(std::max<std::size_t>(pc + 1, m.program().code.size()));
    SiteProfile &site = _sites[pc];
    site.pc = pc;
    site.recordLoad(value, serviced);

    const Instruction &instr = m.program().code[pc];
    _tracker.onLoad(pc, instr, addr, value);

    // The tracker update above must still run (later loads of the same
    // word depend on it); only the per-instance tree walk is skippable.
    if (pc < _config.skipSiteAnalysis.size() &&
        _config.skipSiteAnalysis[pc])
        return;

    NodeId root = _tracker.regProducer(instr.rd);
    if (root == kNoNode ||
        _tracker.node(root).kind != ProducerNode::Kind::Alu) {
        ++site.untracked;
        return;
    }
    analyzeTree(m, site, root);
}

void
Profiler::onStore(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                  std::uint64_t value, MemLevel serviced)
{
    (void)value;
    (void)serviced;
    _tracker.onStore(m.program().code[pc], addr);
}

namespace {

constexpr std::uint64_t kSigPrime = 0x100000001B3ull;

std::uint64_t
sigMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h * kSigPrime;
}

}  // namespace

void
Profiler::analyzeTree(const Machine &m, SiteProfile &site, NodeId root)
{
    if (site.operandLive.empty())
        site.operandLive.resize(2 * m.program().code.size());
    WalkBudget budget;
    std::uint64_t sig = walk(m, site, root, kMaxTreeDepth, budget);
    _walkNodes += static_cast<std::uint64_t>(
        2 * kMaxTreeNodes - budget.sigLeft - budget.liveLeft);

    auto it = std::find_if(site.trees.begin(), site.trees.end(),
                           [sig](const CandidateTree &t) {
                               return t.signature == sig;
                           });
    if (it != site.trees.end()) {
        ++it->count;
    } else if (site.trees.size() < kMaxDistinctTrees) {
        _tracker.pin(root);  // keep the representative alive in the arena
        site.trees.push_back({sig, 1, root});
    } else {
        site.treeOverflow = true;
    }
}

/**
 * One pre-order walk of the slice the builder would construct at this
 * instant. Recursion stops at an operand whose register currently holds
 * the produced input value (a Live cut): nothing below it can end up in
 * the slice on this instance, and chains through loop-carried state
 * would otherwise make every dynamic tree look different even though
 * the buildable slice is identical. Returns the tree's structural
 * signature and records every visited ALU operand in `operandLive`.
 *
 * The two results spend separate budgets. The signature charges every
 * node it enters, leaves included, and reads 0x22 past its budget; the
 * statistics charge ALU nodes only and carry on. So the signature's
 * budget never outlasts the statistics'.
 */
std::uint64_t
Profiler::walk(const Machine &m, SiteProfile &site, NodeId id,
               int depth_left, WalkBudget &budget)
{
    if (id == kNoNode)
        return 0x11ull;
    if (depth_left == 0 || budget.liveLeft <= 0)
        return 0x22ull;
    const ProducerNode &node = _tracker.node(id);
    const bool sig = budget.sigLeft > 0;
    std::uint64_t h = 0x22ull;
    if (sig) {
        --budget.sigLeft;
        h = 0xCBF29CE484222325ull;
        h = sigMix(h, static_cast<std::uint64_t>(node.kind));
        h = sigMix(h, node.pc);
        h = sigMix(h, static_cast<std::uint64_t>(node.op));
    }
    if (node.kind != ProducerNode::Kind::Alu)
        return h;
    --budget.liveLeft;

    auto operand = [&](int idx, Reg read_reg, NodeId producer) {
        OperandLiveStat &stat = site.operandLive[2 * node.pc + idx];
        ++stat.seen;
        // Live sourcing is legal for this instance iff the register the
        // replica would read holds the value the production consumed —
        // whether because it was never overwritten or because the code
        // re-produced the same value (e.g. an index recomputed by the
        // consumer loop). Untracked origins count as live only while
        // the register is still untouched.
        bool live = producer != kNoNode
            ? m.reg(read_reg) == _tracker.node(producer).value
            : _tracker.regProducer(read_reg) == kNoNode;
        if (live)
            ++stat.matches;
        std::uint64_t v = live
            ? 0x33ull  // Live cut
            : walk(m, site, producer, depth_left - 1, budget);
        if (sig)
            h = sigMix(h, v);
    };
    const Instruction &instr = m.program().code[node.pc];
    int fan_in = node.fanIn();
    if (fan_in >= 1)
        operand(0, instr.rs1, node.in1);
    if (fan_in >= 2)
        operand(1, instr.rs2, node.in2);
    return h;
}

const SiteProfile *
Profiler::site(std::uint32_t pc) const
{
    if (pc >= _sites.size() || _sites[pc].count == 0)
        return nullptr;
    return &_sites[pc];
}

std::vector<const SiteProfile *>
Profiler::sites() const
{
    std::vector<const SiteProfile *> result;
    for (const SiteProfile &profile : _sites)
        if (profile.count != 0)
            result.push_back(&profile);
    return result;
}

std::uint64_t
Profiler::operandProbes() const
{
    std::uint64_t probes = 0;
    for (const SiteProfile &profile : _sites)
        for (const OperandLiveStat &stat : profile.operandLive)
            probes += stat.seen;
    return probes;
}

std::uint64_t
Profiler::execCount(std::uint32_t pc) const
{
    return pc < _execCounts.size() ? _execCounts[pc] : 0;
}

}  // namespace amnesiac
