#include "profile/value_locality.h"

namespace amnesiac {

void
ValueLocalityProfiler::record(std::uint32_t pc, std::uint64_t value)
{
    SiteState &site = _sites[pc];
    if (site.count > 0 && site.lastValue == value)
        ++site.repeats;
    site.lastValue = value;
    ++site.count;
}

double
ValueLocalityProfiler::localityPercent(std::uint32_t pc) const
{
    auto it = _sites.find(pc);
    if (it == _sites.end() || it->second.count < 2)
        return 0.0;
    return 100.0 * static_cast<double>(it->second.repeats) /
           static_cast<double>(it->second.count - 1);
}

std::uint64_t
ValueLocalityProfiler::count(std::uint32_t pc) const
{
    auto it = _sites.find(pc);
    return it == _sites.end() ? 0 : it->second.count;
}

}  // namespace amnesiac
