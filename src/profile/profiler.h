/**
 * @file
 * Runtime profiler (the paper's Pin-based profiling pass, §4): per-load
 * residence statistics (Pr_Li, §3.1.1), dynamic backward-slice shapes and
 * their stability, live-operand statistics, and value locality.
 */

#ifndef AMNESIAC_PROFILE_PROFILER_H
#define AMNESIAC_PROFILE_PROFILER_H

#include <array>
#include <cstdint>
#include <vector>

#include "profile/dep_tracker.h"
#include "sim/machine.h"

namespace amnesiac {

/** Tree-walk caps. Deep enough to cover the paper's longest observed
 * slices (~70 instructions, Fig 6). */
inline constexpr int kMaxTreeDepth = 80;
inline constexpr int kMaxTreeNodes = 256;
/** Distinct tree shapes remembered per site before giving up. */
inline constexpr std::size_t kMaxDistinctTrees = 8;

/** Static-pruner masks for the profiling pass. */
struct ProfilerConfig
{
    /**
     * Static-pruner masks, indexed by pc (empty = profile everything).
     * A set `opaqueProduction` bit replaces that production with a
     * shared sentinel node (no ALU mirroring, no per-instance node
     * linking); a set `skipSiteAnalysis` bit suppresses tree analysis
     * at that load site (residence counts and value locality are still
     * recorded). Both come with a conservative-only contract: the
     * pruner only sets bits it proved cannot change which candidates
     * the compiler selects, so profiles of surviving sites are
     * byte-identical with and without the masks.
     */
    std::vector<std::uint8_t> opaqueProduction;
    std::vector<std::uint8_t> skipSiteAnalysis;
};

/** One remembered backward-slice shape at a load site. */
struct CandidateTree
{
    std::uint64_t signature = 0;
    std::uint64_t count = 0;
    /** First dynamic instance with this signature (pinned in the
     * profiler's DepTracker arena, so it stays valid for the whole
     * profiling run). */
    NodeId representative = kNoNode;
};

/**
 * How often a boundary operand's register held the produced input
 * *value* at load time (→ Live sourcing legality, §2.2 case ii).
 * Value equality (not production identity) is the right test: a
 * re-produced equal value recomputes correctly, which is what makes
 * pure-function-of-index slices free of non-recomputable inputs.
 */
struct OperandLiveStat
{
    std::uint64_t matches = 0;
    std::uint64_t seen = 0;

    double
    rate() const
    {
        return seen == 0
            ? 0.0 : static_cast<double>(matches) / static_cast<double>(seen);
    }
};

/** Everything the amnesic compiler needs to know about one load site. */
struct SiteProfile
{
    std::uint32_t pc = 0;
    std::uint64_t count = 0;
    /** Dynamic instances serviced by L1 / L2 / Memory. */
    std::array<std::uint64_t, kNumMemLevels> byLevel{};
    /** Value of the latest instance, and instances that returned the
     * same value as the one before (§5.6, after Lipasti et al.). */
    std::uint64_t lastValue = 0;
    std::uint64_t repeats = 0;
    std::vector<CandidateTree> trees;
    /** Site saw more distinct shapes than kMaxDistinctTrees. */
    bool treeOverflow = false;
    /** Instances whose loaded value had no sliceable producer. */
    std::uint64_t untracked = 0;
    /**
     * Live-operand statistics, one slot per (node pc, operand):
     * slot 2 * node_pc + operand. Sized to twice the program on the
     * site's first tree walk (empty while none has run): the walk
     * probes a slot for every operand it visits, and a site's table is
     * at most a few tens of KB. Read it through liveStat().
     */
    std::vector<OperandLiveStat> operandLive;

    /** Count one dynamic instance: its value and servicing level. */
    void recordLoad(std::uint64_t value, MemLevel serviced);

    /** Pr_Li: probability the load is serviced at a level (§3.1.1). */
    double prLevel(MemLevel level) const;

    /**
     * Value locality in percent (§5.6, Fig 8): 100 * repeats /
     * (instances after the first); 0 below two instances.
     */
    double valueLocalityPercent() const;

    /** Statistics of operand `operand_idx` of the production at
     * `node_pc` (nullptr when no walk at this site ever reached it). */
    const OperandLiveStat *
    liveStat(std::uint32_t node_pc, int operand_idx) const
    {
        std::size_t slot = 2 * static_cast<std::size_t>(node_pc) +
                           static_cast<std::size_t>(operand_idx);
        if (slot >= operandLive.size() || operandLive[slot].seen == 0)
            return nullptr;
        return &operandLive[slot];
    }

    /** Most frequent tree shape (nullptr when none recorded). */
    const CandidateTree *topTree() const;

    /** Share of instances matching the top tree shape. */
    double stability() const;
};

/**
 * Machine observer implementing the profiling pass. Attach to a classic
 * Machine, run the program, then hand the result to the amnesic
 * compiler.
 */
class Profiler : public ExecutionObserver
{
  public:
    explicit Profiler(const ProfilerConfig &config = {});

    void onExec(const Machine &m, std::uint32_t pc,
                const Instruction &instr) override;
    void onLoad(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                std::uint64_t value, MemLevel serviced) override;
    void onStore(const Machine &m, std::uint32_t pc, std::uint64_t addr,
                 std::uint64_t value, MemLevel serviced) override;

    /** Profile of one load site (nullptr if the site never executed). */
    const SiteProfile *site(std::uint32_t pc) const;

    /** All profiled load sites (deterministic order: ascending pc). */
    std::vector<const SiteProfile *> sites() const;

    /** Dynamic execution count of any static instruction. */
    std::uint64_t execCount(std::uint32_t pc) const;

    /**
     * Tree nodes charged by the per-load walk so far, summed over its
     * two budgets of kMaxTreeNodes each: the signature's (every node it
     * enters) and the live statistics' (ALU nodes only).
     */
    std::uint64_t walkNodes() const { return _walkNodes; }

    /** Operand-statistics probes of the walk so far: the sum of every
     * site's `seen` (computed on demand, not in the walk). */
    std::uint64_t operandProbes() const;

    /** The arena holding every candidate tree's representative. */
    const DepTracker &tracker() const { return _tracker; }

  private:
    /** Budgets of one per-load walk (see walkNodes()). */
    struct WalkBudget
    {
        int sigLeft = kMaxTreeNodes;
        int liveLeft = kMaxTreeNodes;
    };

    void analyzeTree(const Machine &m, SiteProfile &site, NodeId root);
    std::uint64_t walk(const Machine &m, SiteProfile &site, NodeId id,
                       int depth_left, WalkBudget &budget);

    ProfilerConfig _config;
    DepTracker _tracker;
    /** Dense per-pc tables, sized to the program on first use. */
    std::vector<SiteProfile> _sites;
    std::vector<std::uint64_t> _execCounts;
    std::uint64_t _walkNodes = 0;
};

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_PROFILER_H
