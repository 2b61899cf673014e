/**
 * @file
 * Per-load-site value-locality measurement (§5.6, Fig 8; after Lipasti
 * et al.): the fraction of a static load's dynamic instances that
 * return the same value as the previous instance.
 */

#ifndef AMNESIAC_PROFILE_VALUE_LOCALITY_H
#define AMNESIAC_PROFILE_VALUE_LOCALITY_H

#include <cstdint>
#include <unordered_map>

namespace amnesiac {

/** Tracks last-value locality for every static load site. */
class ValueLocalityProfiler
{
  public:
    /** Record one dynamic load. */
    void record(std::uint32_t pc, std::uint64_t value);

    /**
     * Value locality of a site in percent: 100 * (instances equal to the
     * previous instance's value) / (instances after the first).
     * Returns 0 for unseen or single-shot sites.
     */
    double localityPercent(std::uint32_t pc) const;

    /** Dynamic instance count of a site. */
    std::uint64_t count(std::uint32_t pc) const;

  private:
    struct SiteState
    {
        std::uint64_t lastValue = 0;
        std::uint64_t count = 0;
        std::uint64_t repeats = 0;
    };

    std::unordered_map<std::uint32_t, SiteState> _sites;
};

}  // namespace amnesiac

#endif  // AMNESIAC_PROFILE_VALUE_LOCALITY_H
