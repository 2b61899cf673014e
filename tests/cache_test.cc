/**
 * @file
 * Unit tests for the set-associative LRU cache model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.h"
#include "util/rng.h"

namespace amnesiac {
namespace {

CacheConfig
tinyConfig()
{
    // 2 sets x 2 ways x 64B lines = 256B.
    return CacheConfig{256, 2, 64};
}

TEST(Cache, GeometryDerivation)
{
    Cache cache(tinyConfig());
    EXPECT_EQ(cache.numSets(), 2u);
    Cache paper_l1(CacheConfig{32 * 1024, 8, 64});
    EXPECT_EQ(paper_l1.numSets(), 64u);
}

TEST(Cache, MissThenHitSameLine)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    EXPECT_FALSE(cache.access(0x100, false, dirty, victim));
    EXPECT_TRUE(cache.access(0x100, false, dirty, victim));
    EXPECT_TRUE(cache.access(0x13F, false, dirty, victim));  // same line
    EXPECT_FALSE(cache.access(0x140, false, dirty, victim));  // next line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    // Set 0 holds lines with even line index: 0x000, 0x080, 0x100...
    cache.access(0x000, false, dirty, victim);
    cache.access(0x080, false, dirty, victim);  // hmm: set = line & 1
    // Lines 0 (0x000) and 2 (0x080) map to sets 0 and 0? line=addr/64:
    // 0x000 -> line 0 (set 0), 0x080 -> line 2 (set 0). Both set 0.
    cache.access(0x000, false, dirty, victim);  // touch line 0 again
    cache.access(0x100, false, dirty, victim);  // line 4, set 0: evicts
    // line 2 (LRU), keeping line 0.
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_FALSE(cache.contains(0x080));
    EXPECT_TRUE(cache.contains(0x100));
}

TEST(Cache, DirtyEvictionReportsVictimAddress)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    cache.access(0x000, true, dirty, victim);   // dirty line 0, set 0
    cache.access(0x080, false, dirty, victim);  // clean line 2, set 0
    cache.access(0x100, false, dirty, victim);  // evicts dirty line 0
    EXPECT_TRUE(dirty);
    EXPECT_EQ(victim, 0x000u);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
    // Evicting a clean line reports nothing.
    cache.access(0x180, false, dirty, victim);  // set 0 again
    EXPECT_FALSE(dirty);
}

TEST(Cache, WriteHitMarksLineDirty)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    cache.access(0x000, false, dirty, victim);  // clean fill
    cache.access(0x008, true, dirty, victim);   // write hit, same line
    cache.access(0x080, false, dirty, victim);
    cache.access(0x100, false, dirty, victim);  // evicts line 0
    EXPECT_TRUE(dirty) << "write-hit must have dirtied the line";
}

TEST(Cache, ContainsDoesNotPerturbLru)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    cache.access(0x000, false, dirty, victim);
    cache.access(0x080, false, dirty, victim);
    // Peek the older line; a real access would make it MRU.
    EXPECT_TRUE(cache.contains(0x000));
    cache.access(0x100, false, dirty, victim);
    // 0x000 must still have been the LRU victim.
    EXPECT_FALSE(cache.contains(0x000));
}

TEST(Cache, ResetClearsLinesAndStats)
{
    Cache cache(tinyConfig());
    bool dirty;
    std::uint64_t victim;
    cache.access(0x000, true, dirty, victim);
    cache.reset();
    EXPECT_FALSE(cache.contains(0x000));
    EXPECT_EQ(cache.stats().accesses(), 0u);
}

TEST(Cache, FullAssociativeWorkingSetFits)
{
    // 32KB 8-way: 512 lines; a 512-line working set must fully hit on
    // the second pass.
    Cache cache(CacheConfig{32 * 1024, 8, 64});
    bool dirty;
    std::uint64_t victim;
    for (std::uint64_t line = 0; line < 512; ++line)
        cache.access(line * 64, false, dirty, victim);
    for (std::uint64_t line = 0; line < 512; ++line)
        EXPECT_TRUE(cache.access(line * 64, false, dirty, victim));
    EXPECT_EQ(cache.stats().hits, 512u);
}

/**
 * Reference model of a true-LRU write-back cache: one struct per line,
 * the victim picked with branches (the last invalid way, else the
 * least recently used). Cache must make every decision it makes.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : _config(config),
          _numSets(static_cast<std::uint32_t>(
              config.sizeBytes / config.lineBytes / config.ways)),
          _lines(static_cast<std::size_t>(_numSets) * config.ways)
    {
    }

    bool
    access(std::uint64_t addr, bool is_write, bool &evicted_dirty,
           std::uint64_t &evicted_addr)
    {
        evicted_dirty = false;
        evicted_addr = 0;
        ++_tick;
        std::uint64_t laddr = addr / _config.lineBytes;
        std::uint64_t tag = laddr / _numSets;
        Line *set = setOf(laddr);
        Line *victim = &set[0];
        for (std::uint32_t w = 0; w < _config.ways; ++w) {
            Line &line = set[w];
            if (line.valid && line.tag == tag) {
                line.lastUse = _tick;
                line.dirty = line.dirty || is_write;
                ++_stats.hits;
                return true;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lastUse < victim->lastUse) {
                victim = &line;
            }
        }
        ++_stats.misses;
        if (victim->valid) {
            ++_stats.evictions;
            if (victim->dirty) {
                ++_stats.dirtyEvictions;
                evicted_dirty = true;
                evicted_addr = (victim->tag * _numSets + laddr % _numSets) *
                               _config.lineBytes;
            }
        }
        *victim = Line{tag, _tick, true, is_write};
        return false;
    }

    bool
    installWriteback(std::uint64_t addr, bool &evicted_dirty,
                     std::uint64_t &evicted_addr)
    {
        ++_stats.writebackInstalls;
        return access(addr, true, evicted_dirty, evicted_addr);
    }

    bool
    contains(std::uint64_t addr)
    {
        return find(addr) != nullptr;
    }

    bool
    invalidate(std::uint64_t addr)
    {
        Line *line = find(addr);
        if (line)
            *line = Line{};
        return line != nullptr;
    }

    void
    reset()
    {
        for (Line &line : _lines)
            line = Line{};
        _tick = 0;
        _stats = CacheStats{};
    }

    const CacheStats &stats() const { return _stats; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    setOf(std::uint64_t laddr)
    {
        return &_lines[static_cast<std::size_t>(laddr % _numSets) *
                       _config.ways];
    }

    Line *
    find(std::uint64_t addr)
    {
        std::uint64_t laddr = addr / _config.lineBytes;
        Line *set = setOf(laddr);
        for (std::uint32_t w = 0; w < _config.ways; ++w)
            if (set[w].valid && set[w].tag == laddr / _numSets)
                return &set[w];
        return nullptr;
    }

    CacheConfig _config;
    std::uint32_t _numSets;
    std::vector<Line> _lines;
    std::uint64_t _tick = 0;
    CacheStats _stats;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.dirtyEvictions, want.dirtyEvictions);
    EXPECT_EQ(got.writebackInstalls, want.writebackInstalls);
}

/** Drive `cache` and `ref` with one operation and compare the results
 * and the statistics. Returns false on the first disagreement. */
bool
stepBoth(Cache &cache, ReferenceCache &ref, int op, std::uint64_t addr)
{
    bool dirty = true, ref_dirty = false;
    std::uint64_t victim = 1, ref_victim = 0;
    bool got = false, want = false;
    switch (op) {
      case 0:
      case 1:
        got = cache.access(addr, op == 1, dirty, victim);
        want = ref.access(addr, op == 1, ref_dirty, ref_victim);
        break;
      case 2:
        got = cache.installWriteback(addr, dirty, victim);
        want = ref.installWriteback(addr, ref_dirty, ref_victim);
        break;
      case 3:
        got = cache.contains(addr);
        want = ref.contains(addr);
        dirty = ref_dirty;
        victim = ref_victim;
        break;
      case 4:
        got = cache.invalidate(addr);
        want = ref.invalidate(addr);
        dirty = ref_dirty;
        victim = ref_victim;
        break;
      default:
        cache.reset();
        ref.reset();
        dirty = ref_dirty;
        victim = ref_victim;
        break;
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(dirty, ref_dirty);
    EXPECT_EQ(victim, ref_victim);
    expectSameStats(cache.stats(), ref.stats());
    return got == want && dirty == ref_dirty && victim == ref_victim &&
           !::testing::Test::HasFailure();
}

TEST(Cache, MatchesReferenceModelOnRandomStreams)
{
    const CacheConfig geometries[] = {
        {256, 1, 64},         // direct-mapped
        {256, 2, 64},
        {4096, 8, 32},
        {8192, 16, 64},
        {32 * 1024, 8, 64},   // Table 3 L1-D
        {512 * 1024, 8, 64},  // Table 3 L2
    };
    for (const CacheConfig &config : geometries) {
        SCOPED_TRACE(::testing::Message()
                     << config.sizeBytes << "B " << config.ways << "-way "
                     << config.lineBytes << "B lines");
        Cache cache(config);
        ReferenceCache ref(config);
        // Three times as many lines as the cache holds, so every set
        // sees conflicts, evictions and dirty write-backs.
        std::uint64_t lines = 3 * config.sizeBytes / config.lineBytes;
        Xorshift64Star rng(config.sizeBytes + config.ways);
        for (int i = 0; i < 200000; ++i) {
            std::uint64_t r = rng.nextBelow(1000);
            // Mostly reads and writes; rare invalidations keep invalid
            // ways in the middle of sets; a few resets per stream.
            int op = r < 450   ? 0
                     : r < 800 ? 1
                     : r < 880 ? 2
                     : r < 960 ? 3
                     : r < 999 ? 4
                     : rng.nextBool(0.1) ? 5 : 0;
            std::uint64_t addr = rng.nextBelow(lines) * config.lineBytes +
                                 rng.nextBelow(config.lineBytes);
            ASSERT_TRUE(stepBoth(cache, ref, op, addr))
                << "op " << op << " at 0x" << std::hex << addr
                << std::dec << ", step " << i;
        }
    }
}

TEST(Cache, InvalidWayInTheMiddleOfASetIsRefilledFirst)
{
    // One set of four ways: fill it, drop way 1, then miss twice. The
    // first miss must take the invalid way, the second the LRU one.
    CacheConfig config{256, 4, 64};
    Cache cache(config);
    ReferenceCache ref(config);
    for (std::uint64_t line = 0; line < 4; ++line)
        ASSERT_TRUE(stepBoth(cache, ref, 1, line * 64));  // dirty fills
    ASSERT_TRUE(stepBoth(cache, ref, 4, 1 * 64));          // way 1 invalid
    ASSERT_TRUE(stepBoth(cache, ref, 0, 4 * 64));  // takes way 1
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(2 * 64));
    EXPECT_EQ(cache.stats().evictions, 0u);
    ASSERT_TRUE(stepBoth(cache, ref, 0, 5 * 64));  // evicts line 0
    EXPECT_FALSE(cache.contains(0));
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

}  // namespace
}  // namespace amnesiac
