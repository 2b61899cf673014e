#include "profile/shard.h"

#include <algorithm>

#include "obs/span.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace amnesiac {

namespace {

/**
 * Observer for the seed pass (A1): mirrors producer/value state exactly
 * like the full Profiler — through the same Profiler::mirrorExec code —
 * but performs no per-load analysis, so it runs at a fraction of the
 * full profiling cost. Its state at a window boundary is precisely what
 * a serial Profiler's tracker would hold there (modulo arena slot
 * layout, which analysis never observes: trees are compared by node
 * *contents*, never by NodeId).
 */
class SeedObserver final : public MachineObserver
{
  public:
    explicit SeedObserver(const ProfilerConfig &config) : _config(config) {}

    void onExec(const ExecutionEngine &m, std::uint32_t pc,
                const Instruction &instr) override
    {
        Profiler::mirrorExec(_tracker, _config, m, pc, instr);
    }

    void onLoad(const ExecutionEngine &m, std::uint32_t pc,
                std::uint64_t addr, std::uint64_t value,
                MemLevel serviced) override
    {
        (void)serviced;
        _values.seedLast(pc, value);
        _tracker.onLoad(pc, m.program().code[pc], addr, value);
    }

    void onStore(const ExecutionEngine &m, std::uint32_t pc,
                 std::uint64_t addr, std::uint64_t value,
                 MemLevel serviced) override
    {
        (void)value;
        (void)serviced;
        _tracker.onStore(m.program().code[pc], addr);
    }

    /** Copy out the seed for the window starting here. */
    Profiler::Seed seed() const { return {_tracker, _values.lastValues()}; }

  private:
    ProfilerConfig _config;
    DepTracker _tracker;
    ValueLocalityProfiler _values;
};

/** Split `total` dispatches into K near-equal contiguous windows. */
std::vector<std::uint64_t>
evenWindows(std::uint64_t total, unsigned jobs)
{
    std::uint64_t k = std::min<std::uint64_t>(jobs, total);
    if (k == 0)
        k = 1;
    std::vector<std::uint64_t> lens(static_cast<std::size_t>(k));
    std::uint64_t base = total / k;
    std::uint64_t rem = total % k;
    for (std::size_t i = 0; i < lens.size(); ++i)
        lens[i] = base + (i < rem ? 1 : 0);
    return lens;
}

/** Normalize an explicit window-length override to cover `total`. */
std::vector<std::uint64_t>
explicitWindows(std::uint64_t total, const std::vector<std::uint64_t> &lens)
{
    std::vector<std::uint64_t> out;
    std::uint64_t used = 0;
    for (std::uint64_t len : lens) {
        if (used >= total)
            break;
        len = std::min(len, total - used);
        if (len == 0)
            continue;
        out.push_back(len);
        used += len;
    }
    if (used < total)
        out.push_back(total - used);
    if (out.empty())
        out.push_back(total);
    return out;
}

}  // namespace

const SiteProfile *
ShardedProfile::site(std::uint32_t pc) const
{
    if (pc >= _sites.size() || _sites[pc].count == 0)
        return nullptr;
    return &_sites[pc];
}

std::vector<const SiteProfile *>
ShardedProfile::sites() const
{
    std::vector<const SiteProfile *> result;
    for (const SiteProfile &profile : _sites)
        if (profile.count != 0)
            result.push_back(&profile);
    return result;
}

std::uint64_t
ShardedProfile::execCount(std::uint32_t pc) const
{
    return pc < _exec.size() ? _exec[pc] : 0;
}

double
ShardedProfile::valueLocalityPercent(std::uint32_t pc) const
{
    auto it = _locality.find(pc);
    if (it == _locality.end() || it->second.count < 2)
        return 0.0;
    return 100.0 * static_cast<double>(it->second.repeats) /
           static_cast<double>(it->second.count - 1);
}

const DepTracker &
ShardedProfile::treeArena(const CandidateTree &tree) const
{
    AMNESIAC_ASSERT(tree.arena < _windows.size(), "bad tree arena index");
    return _windows[tree.arena]->tracker();
}

void
ShardedProfile::mergeWindows(const ProfilerConfig &config)
{
    // Execution counts and value locality are plain order-independent
    // sums; a load's boundary-crossing value comparison was preserved
    // by seeding the window with the previous window's last values, so
    // every instance except the global first contributes exactly one
    // comparison — same as one serial pass.
    for (const auto &window : _windows) {
        const std::vector<std::uint64_t> &counts = window->execCountTable();
        if (counts.size() > _exec.size())
            _exec.resize(counts.size());
        for (std::size_t pc = 0; pc < counts.size(); ++pc)
            _exec[pc] += counts[pc];
        for (const auto &[pc, counts] : window->valueLocality().counts()) {
            ValueLocalityProfiler::SiteCounts &agg = _locality[pc];
            agg.count += counts.count;
            agg.repeats += counts.repeats;
        }
    }

    // Site profiles: counts sum; tree lists concatenate *in window
    // order*, deduplicated by signature. Windows run with the distinct-
    // shape cap lifted, so every occurrence of every shape is counted;
    // since a shape's first window is the window of its global first
    // occurrence, the merged list comes out in global first-occurrence
    // order — exactly the order in which a serial profiler would have
    // stored (or, beyond the cap, refused) the shapes.
    for (std::uint32_t k = 0; k < _windows.size(); ++k) {
        const std::vector<SiteProfile> &wsites = _windows[k]->siteTable();
        if (wsites.size() > _sites.size())
            _sites.resize(wsites.size());
        for (const SiteProfile &wsite : wsites) {
            if (wsite.count == 0)
                continue;
            SiteProfile &site = _sites[wsite.pc];
            site.pc = wsite.pc;
            site.count += wsite.count;
            for (std::size_t level = 0; level < kNumMemLevels; ++level)
                site.byLevel[level] += wsite.byLevel[level];
            site.untracked += wsite.untracked;
            site.treeOverflow |= wsite.treeOverflow;
            for (const auto &[key, stat] : wsite.operandLive) {
                OperandLiveStat &agg = site.operandLive[key];
                agg.matches += stat.matches;
                agg.seen += stat.seen;
            }
            for (const CandidateTree &tree : wsite.trees) {
                auto it = std::find_if(site.trees.begin(), site.trees.end(),
                                       [&](const CandidateTree &t) {
                                           return t.signature ==
                                                  tree.signature;
                                       });
                if (it != site.trees.end())
                    it->count += tree.count;
                else
                    site.trees.push_back(
                        {tree.signature, tree.count, tree.representative, k});
            }
        }
    }

    // Apply the serial cap: keep the first maxDistinctTrees shapes in
    // global first-occurrence order; later shapes only mark overflow
    // (their occurrences are not counted — the serial profiler never
    // counts instances of shapes it refused to store).
    for (SiteProfile &site : _sites) {
        if (site.trees.size() > config.maxDistinctTrees) {
            site.trees.resize(config.maxDistinctTrees);
            site.treeOverflow = true;
        }
    }
}

std::unique_ptr<ShardedProfile>
profileSharded(const Program &program, const EnergyModel &energy,
               const HierarchyConfig &hierarchy, const ProfilerConfig &config,
               const ShardOptions &options)
{
    unsigned jobs = options.jobs == 0 ? ThreadPool::defaultThreadCount()
                                      : options.jobs;

    // Pass A0: bare classic run at full interpreter speed to learn the
    // dynamic length. Uses the same fatal runaway guard a serial
    // profiling run would (a program that exceeds runLimit dies here
    // exactly as it would under Machine::run).
    std::uint64_t total = 0;
    {
        ScopedSpan span("profile:A0", program.name);
        Machine measure(program, energy, hierarchy);
        measure.run(options.runLimit);
        total = measure.stats().dynInstrs;
        span.counter("instrs", total);
    }

    std::vector<std::uint64_t> lens =
        options.windowLengths.empty()
            ? evenWindows(total, jobs)
            : explicitWindows(total, options.windowLengths);
    const std::size_t windows = lens.size();

    // Pass A1: serial seed pass. Captures, at the start of every window
    // after the first, the machine snapshot plus the producer/value
    // seed. The last window's tail never needs replaying here.
    std::vector<EngineSnapshot> snaps(windows);
    std::vector<Profiler::Seed> seeds(windows);
    if (windows > 1) {
        ScopedSpan span("profile:A1", program.name);
        span.counter("windows", windows);
        Machine seeder_machine(program, energy, hierarchy);
        SeedObserver seeder(config);
        seeder_machine.setObserver(&seeder);
        for (std::size_t k = 1; k < windows; ++k) {
            seeder_machine.runBounded(lens[k - 1]);
            snaps[k] = seeder_machine.snapshot();
            seeds[k] = seeder.seed();
        }
    }

    // Pass B: replay every window with full analysis, in parallel on a
    // private pool (callers may themselves be pool tasks — see
    // ExperimentRunner::prepare — so this never borrows their pool).
    auto profile = std::unique_ptr<ShardedProfile>(new ShardedProfile());
    profile->_windows.resize(windows);
    {
        ScopedSpan span("profile:B", program.name);
        span.counter("windows", windows);
        ThreadPool pool(
            std::min<unsigned>(jobs, static_cast<unsigned>(windows)));
        parallelFor(&pool, windows, [&](std::size_t k) {
            ScopedSpan window_span("profile:window", program.name);
            window_span.counter("window", k);
            window_span.counter("instrs", lens[k]);
            Machine machine(program, energy, hierarchy);
            if (k > 0)
                machine.restore(snaps[k]);
            profile->_windows[k] =
                std::make_unique<Profiler>(config, std::move(seeds[k]));
            machine.setObserver(profile->_windows[k].get());
            machine.runBounded(lens[k]);
        });
    }

    {
        ScopedSpan span("profile:merge", program.name);
        profile->mergeWindows(config);
    }
    return profile;
}

}  // namespace amnesiac
