#include "core/store_elimination.h"

#include <algorithm>

namespace amnesiac {

void
StoreProfiler::onStore(const Machine &m, std::uint32_t pc,
                       std::uint64_t addr, std::uint64_t value,
                       MemLevel serviced)
{
    (void)m;
    (void)value;
    StoreSiteProfile &site = _sites[pc];
    site.pc = pc;
    ++site.count;
    site.energyNj += _energy->storeEnergy(serviced);
    std::uint64_t word = addr / 8;
    _lastWriter[word] = pc;
    _wordWriters[word].insert(pc);
    auto [it, inserted] = _siteWords[pc].insert(word);
    (void)it;
    if (inserted)
        ++site.footprintWords;
}

void
StoreProfiler::onLoad(const Machine &m, std::uint32_t pc,
                      std::uint64_t addr, std::uint64_t value,
                      MemLevel serviced)
{
    (void)m;
    (void)value;
    (void)serviced;
    auto writer = _lastWriter.find(addr / 8);
    if (writer == _lastWriter.end())
        return;  // program input, no producing store
    ++_sites[writer->second].consumers[pc];
}

std::vector<const StoreSiteProfile *>
StoreProfiler::sites() const
{
    std::vector<const StoreSiteProfile *> result;
    result.reserve(_sites.size());
    for (const auto &[pc, site] : _sites)
        result.push_back(&site);
    std::sort(result.begin(), result.end(),
              [](const StoreSiteProfile *a, const StoreSiteProfile *b) {
                  return a->pc < b->pc;
              });
    return result;
}

StoreEliminationReport
analyzeStoreElimination(const Program &original,
                        const CompileResult &compiled,
                        const EnergyModel &energy,
                        const HierarchyConfig &hierarchy,
                        std::uint64_t run_limit)
{
    StoreProfiler profiler(energy);
    Machine machine(original, energy, hierarchy);
    machine.setObserver(&profiler);
    machine.run(run_limit);

    std::unordered_set<std::uint32_t> swapped;
    for (const RSlice &slice : compiled.slices)
        swapped.insert(slice.loadPc);

    StoreEliminationReport report;
    std::unordered_set<std::uint32_t> eliminable_sites;
    for (const StoreSiteProfile *site : profiler.sites()) {
        StoreEliminationReport::Site row;
        row.pc = site->pc;
        row.dynStores = site->count;
        row.energyNj = site->energyNj;
        row.dead = site->consumers.empty();
        row.eliminable =
            !row.dead &&
            std::all_of(site->consumers.begin(), site->consumers.end(),
                        [&swapped](const auto &entry) {
                            return swapped.count(entry.first) > 0;
                        });
        report.totalDynStores += row.dynStores;
        report.totalStoreEnergyNj += row.energyNj;
        if (row.eliminable) {
            report.eliminableDynStores += row.dynStores;
            report.eliminableStoreEnergyNj += row.energyNj;
            eliminable_sites.insert(row.pc);
        }
        report.sites.push_back(row);
    }

    // A word is freeable iff every site that ever wrote it is
    // eliminable: recomputation then fully replaces its storage.
    for (const auto &[word, writers] : profiler.wordWriters()) {
        (void)word;
        ++report.totalWords;
        bool freeable = std::all_of(
            writers.begin(), writers.end(),
            [&eliminable_sites](std::uint32_t writer) {
                return eliminable_sites.count(writer) > 0;
            });
        if (freeable)
            ++report.freeableWords;
    }
    return report;
}

}  // namespace amnesiac
