/**
 * @file
 * Set-associative write-back cache model (tags only; data is functional
 * and lives in the machine's flat memory). Matches the paper's Table 3
 * geometry: LRU replacement, write-back, write-allocate.
 */

#ifndef AMNESIAC_MEM_CACHE_H
#define AMNESIAC_MEM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace amnesiac {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t lineBytes = 64;
};

/** Hit/miss/eviction counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    /** Lines installed into this level by a dirty write-back from the
     * level above (hierarchy write-back traffic, not demand accesses —
     * although they are also counted in hits/misses, as before). */
    std::uint64_t writebackInstalls = 0;

    std::uint64_t accesses() const { return hits + misses; }
};

/**
 * One level of set-associative cache with true-LRU replacement.
 *
 * The cache stores no data: access() reports hit/miss and whether a
 * dirty victim was evicted, which the hierarchy turns into write-back
 * traffic toward the next level.
 *
 * Each way is a tag, an LRU stamp and a dirty byte, kept in three flat
 * arrays (numSets × ways, row-major by set). An invalid way holds tag
 * kInvalidTag and stamp 0; a valid way's stamp is the logical time of
 * its last access, so no two valid ways share one. Lookups compare
 * every way of the set without an early exit (a tag sits in at most
 * one way), and the victim is the way with the least stamp, ties going
 * to the later way: the last invalid way if there is one, else the
 * least recently used.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Perform an access, updating tags and LRU state.
     * @param addr byte address
     * @param is_write true for stores (marks the line dirty)
     * @param[out] evicted_dirty set when a dirty victim was displaced
     * @param[out] evicted_addr base address of the displaced dirty line
     * @return true on hit
     */
    bool access(std::uint64_t addr, bool is_write, bool &evicted_dirty,
                std::uint64_t &evicted_addr);

    /**
     * A write access performed on behalf of a dirty write-back arriving
     * from the level above: identical to access(addr, true, ...) but
     * additionally counted in CacheStats::writebackInstalls.
     */
    bool installWriteback(std::uint64_t addr, bool &evicted_dirty,
                          std::uint64_t &evicted_addr);

    /** Non-mutating lookup (no LRU update); used by probes and oracles. */
    bool contains(std::uint64_t addr) const;

    /**
     * Drop the line holding `addr` if present (fault injection: a
     * particle strike invalidating an SRAM line). Placement-only, like
     * every cache operation here — the data itself lives in the
     * machine's flat memory, so correctness can never depend on this.
     * @return true if a line was dropped
     */
    bool invalidate(std::uint64_t addr);

    /** Drop every line (also clears statistics). */
    void reset();

    const CacheConfig &config() const { return _config; }
    const CacheStats &stats() const { return _stats; }

    /** Number of sets (derived from the geometry). */
    std::uint32_t numSets() const { return _numSets; }

  private:
    /** Tag of an invalid way; no line address shifted right by the
     * line and set bits can reach it. */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint32_t setIndex(std::uint64_t line_addr) const;
    /** Index of the first way of `line_addr`'s set in the way arrays. */
    std::size_t setBase(std::uint64_t line_addr) const;
    /** Way of the set at `base` holding `tag`, or `ways` if none. */
    std::uint32_t findWay(std::size_t base, std::uint64_t tag) const;

    CacheConfig _config;
    std::uint32_t _numSets;
    // Shift/mask forms of the (power-of-two, asserted in the ctor)
    // geometry divisors, so the per-access index math is division-free.
    std::uint32_t _lineShift = 0;
    std::uint32_t _setShift = 0;
    std::uint64_t _setMask = 0;
    std::vector<std::uint64_t> _tags;    ///< kInvalidTag when invalid
    std::vector<std::uint64_t> _stamps;  ///< last use; 0 when invalid
    std::vector<std::uint8_t> _dirty;    ///< 0 when invalid
    std::uint64_t _tick = 0;  ///< logical time for LRU ordering
    CacheStats _stats;
};

}  // namespace amnesiac

#endif  // AMNESIAC_MEM_CACHE_H
