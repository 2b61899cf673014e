#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace amnesiac {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

Cache::Cache(const CacheConfig &config) : _config(config)
{
    AMNESIAC_ASSERT(isPowerOfTwo(config.lineBytes), "line size not 2^k");
    AMNESIAC_ASSERT(config.ways > 0, "cache needs at least one way");
    std::uint64_t lines = config.sizeBytes / config.lineBytes;
    AMNESIAC_ASSERT(lines % config.ways == 0,
                    "size/line/ways geometry does not divide into sets");
    _numSets = static_cast<std::uint32_t>(lines / config.ways);
    AMNESIAC_ASSERT(isPowerOfTwo(_numSets), "set count not 2^k");
    // Both divisors are asserted power-of-two above, so every division
    // and modulo on the access path reduces to a shift or mask.
    _lineShift = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(config.lineBytes)));
    _setShift = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(_numSets)));
    _setMask = _numSets - 1;
    AMNESIAC_ASSERT(_lineShift + _setShift > 0,
                    "a tag must be narrower than the address, or it "
                    "could equal the invalid tag");
    std::size_t ways = static_cast<std::size_t>(_numSets) * config.ways;
    _tags.assign(ways, kInvalidTag);
    _stamps.assign(ways, 0);
    _dirty.assign(ways, 0);
}

std::uint64_t
Cache::lineAddr(std::uint64_t addr) const
{
    return addr >> _lineShift;
}

std::uint32_t
Cache::setIndex(std::uint64_t line_addr) const
{
    return static_cast<std::uint32_t>(line_addr & _setMask);
}

std::size_t
Cache::setBase(std::uint64_t line_addr) const
{
    return static_cast<std::size_t>(setIndex(line_addr)) * _config.ways;
}

std::uint32_t
Cache::findWay(std::size_t base, std::uint64_t tag) const
{
    // No early exit: a tag sits in at most one way, so the scan is a
    // fixed-length run of compares and selects.
    const std::uint64_t *tags = &_tags[base];
    std::uint32_t found = _config.ways;
    for (std::uint32_t w = 0; w < _config.ways; ++w)
        found = tags[w] == tag ? w : found;
    return found;
}

bool
Cache::access(std::uint64_t addr, bool is_write, bool &evicted_dirty,
              std::uint64_t &evicted_addr)
{
    ++_tick;
    std::uint64_t laddr = lineAddr(addr);
    std::uint64_t tag = laddr >> _setShift;
    std::size_t base = setBase(laddr);

    std::uint32_t hit = findWay(base, tag);
    if (hit != _config.ways) {
        _stamps[base + hit] = _tick;
        _dirty[base + hit] |= static_cast<std::uint8_t>(is_write);
        ++_stats.hits;
        evicted_dirty = false;
        evicted_addr = 0;
        return true;
    }

    // The least stamp, ties to the later way: invalid ways (stamp 0)
    // go first, the last of them winning; valid stamps are distinct.
    const std::uint64_t *stamps = &_stamps[base];
    std::uint64_t least = stamps[0];
    for (std::uint32_t w = 1; w < _config.ways; ++w)
        least = std::min(least, stamps[w]);
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < _config.ways; ++w)
        victim = stamps[w] == least ? w : victim;
    std::size_t slot = base + victim;

    // An invalid way is clean, so only a valid dirty victim reports.
    bool dirty = _dirty[slot] != 0;
    ++_stats.misses;
    _stats.evictions += _stamps[slot] != 0;
    _stats.dirtyEvictions += dirty;
    evicted_dirty = dirty;
    evicted_addr = dirty ? ((_tags[slot] << _setShift) | setIndex(laddr))
                               << _lineShift
                         : 0;
    _tags[slot] = tag;
    _stamps[slot] = _tick;
    _dirty[slot] = static_cast<std::uint8_t>(is_write);
    return false;
}

bool
Cache::installWriteback(std::uint64_t addr, bool &evicted_dirty,
                        std::uint64_t &evicted_addr)
{
    ++_stats.writebackInstalls;
    return access(addr, /*is_write=*/true, evicted_dirty, evicted_addr);
}

bool
Cache::contains(std::uint64_t addr) const
{
    std::uint64_t laddr = lineAddr(addr);
    return findWay(setBase(laddr), laddr >> _setShift) != _config.ways;
}

bool
Cache::invalidate(std::uint64_t addr)
{
    std::uint64_t laddr = lineAddr(addr);
    std::size_t base = setBase(laddr);
    std::uint32_t way = findWay(base, laddr >> _setShift);
    if (way == _config.ways)
        return false;
    _tags[base + way] = kInvalidTag;
    _stamps[base + way] = 0;
    _dirty[base + way] = 0;
    return true;
}

void
Cache::reset()
{
    std::fill(_tags.begin(), _tags.end(), kInvalidTag);
    std::fill(_stamps.begin(), _stamps.end(), 0);
    std::fill(_dirty.begin(), _dirty.end(), 0);
    _tick = 0;
    _stats = CacheStats{};
}

}  // namespace amnesiac
