/**
 * @file
 * Tests for the two-level memory hierarchy: service levels, write-back
 * propagation, probes, and peeks.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.h"
#include "util/rng.h"

namespace amnesiac {
namespace {

HierarchyConfig
tinyHierarchy()
{
    // L1: 256B 2-way; L2: 1KB 2-way.
    return HierarchyConfig{{256, 2, 64}, {1024, 2, 64}};
}

TEST(Hierarchy, ColdReadServicedByMemoryThenCaches)
{
    MemoryHierarchy mem(tinyHierarchy());
    EXPECT_EQ(mem.read(0x0).servicedBy, MemLevel::Memory);
    EXPECT_EQ(mem.read(0x0).servicedBy, MemLevel::L1);
    EXPECT_EQ(mem.readsBy()[static_cast<int>(MemLevel::Memory)], 1u);
    EXPECT_EQ(mem.readsBy()[static_cast<int>(MemLevel::L1)], 1u);
}

TEST(Hierarchy, L1EvictionLeavesLineInL2)
{
    MemoryHierarchy mem(tinyHierarchy());
    // Fill L1 set 0 (2 ways) with three lines mapping to the same set:
    // line indexes 0, 2, 4 (L1 has 2 sets).
    mem.read(0 * 64);
    mem.read(2 * 64);
    mem.read(4 * 64);  // evicts line 0 from L1
    EXPECT_EQ(mem.peekLevel(0 * 64), MemLevel::L2);
    EXPECT_EQ(mem.read(0 * 64).servicedBy, MemLevel::L2);
}

TEST(Hierarchy, DirtyL1VictimWritesBackToL2)
{
    MemoryHierarchy mem(tinyHierarchy());
    mem.write(0 * 64);   // dirty in L1
    mem.read(2 * 64);
    HierarchyAccess access = mem.read(4 * 64);  // evicts dirty line 0
    EXPECT_TRUE(access.l1Writeback);
}

TEST(Hierarchy, PeekDoesNotChangeState)
{
    MemoryHierarchy mem(tinyHierarchy());
    EXPECT_EQ(mem.peekLevel(0x40), MemLevel::Memory);
    EXPECT_EQ(mem.peekLevel(0x40), MemLevel::Memory);
    mem.read(0x40);
    EXPECT_EQ(mem.peekLevel(0x40), MemLevel::L1);
}

TEST(Hierarchy, ProbeMatchesLevelOccupancy)
{
    MemoryHierarchy mem(tinyHierarchy());
    mem.read(0 * 64);
    mem.read(2 * 64);
    mem.read(4 * 64);  // line 0 now only in L2
    EXPECT_FALSE(mem.probe(MemLevel::L1, 0));
    EXPECT_TRUE(mem.probe(MemLevel::L2, 0));
    EXPECT_TRUE(mem.probe(MemLevel::Memory, 0));
}

TEST(Hierarchy, WriteAllocates)
{
    MemoryHierarchy mem(tinyHierarchy());
    EXPECT_EQ(mem.write(0x80).servicedBy, MemLevel::Memory);
    EXPECT_EQ(mem.write(0x80).servicedBy, MemLevel::L1);
    EXPECT_EQ(mem.writesBy()[static_cast<int>(MemLevel::L1)], 1u);
}

TEST(Hierarchy, ResetRestoresColdState)
{
    MemoryHierarchy mem(tinyHierarchy());
    mem.read(0x0);
    mem.reset();
    EXPECT_EQ(mem.peekLevel(0x0), MemLevel::Memory);
    EXPECT_EQ(mem.readsBy()[0] + mem.readsBy()[1] + mem.readsBy()[2], 0u);
}

TEST(Hierarchy, ProbesAgreeWithPeekLevelOnRandomStreams)
{
    // The FLC and LLC policies decide from peekLevel's residence; that
    // is only sound while probe(L1) is "resides in L1" and
    // probe(L1) || probe(L2) is "resides in some cache".
    for (const HierarchyConfig &config :
         {tinyHierarchy(), HierarchyConfig{}}) {
        MemoryHierarchy mem(config);
        Xorshift64Star rng(config.l2.sizeBytes);
        std::uint64_t lines = 2 * config.l2.sizeBytes / config.l2.lineBytes;
        for (int i = 0; i < 100000; ++i) {
            std::uint64_t addr = rng.nextBelow(lines) * config.l2.lineBytes;
            std::uint64_t r = rng.nextBelow(100);
            if (r < 45)
                mem.read(addr);
            else if (r < 90)
                mem.write(addr);
            else if (r < 95)
                mem.invalidateLine(addr);
            std::uint64_t peek = rng.nextBelow(lines) * config.l2.lineBytes;
            MemLevel level = mem.peekLevel(peek);
            ASSERT_EQ(mem.probe(MemLevel::L1, peek), level == MemLevel::L1)
                << "step " << i;
            ASSERT_EQ(mem.probe(MemLevel::L1, peek) ||
                          mem.probe(MemLevel::L2, peek),
                      level != MemLevel::Memory)
                << "step " << i;
        }
    }
}

TEST(Hierarchy, LevelNames)
{
    EXPECT_EQ(memLevelName(MemLevel::L1), "L1");
    EXPECT_EQ(memLevelName(MemLevel::L2), "L2");
    EXPECT_EQ(memLevelName(MemLevel::Memory), "Memory");
}

}  // namespace
}  // namespace amnesiac
