/**
 * @file
 * The benchmark's digest checks (run by paperbench/test_paperbench.py,
 * or directly as `paperbench_selftest`): every SimStats word is covered
 * by the digest, and altering any single counter changes it.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "paperbench.h"

namespace {

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

void
testDigestCoversEveryCounter()
{
    using amnesiac::SimStats;
    check(sizeof(SimStats) == 8 * paperbench::canonicalStatsWords(),
          "canonicalStats covers every 8-byte word of SimStats");

    SimStats base;
    base.dynInstrs = 1000;
    base.energy.loadNj = 2.5;
    const std::string reference = paperbench::canonicalStats(base);
    bool all_differ = true;
    for (std::size_t word = 0; word < sizeof(SimStats) / 8; ++word) {
        // Alter one counter: add one to the raw bits of that word.
        SimStats altered = base;
        auto *bytes = reinterpret_cast<unsigned char *>(&altered);
        std::uint64_t bits = 0;
        std::memcpy(&bits, bytes + 8 * word, 8);
        ++bits;
        std::memcpy(bytes + 8 * word, &bits, 8);
        if (paperbench::canonicalStats(altered) == reference) {
            std::printf("     word %zu is not in the digest\n", word);
            all_differ = false;
        }
    }
    check(all_differ, "altering any single counter changes the digest");

    amnesiac::BenchmarkResult result;
    result.name = "mcf";
    result.policies.resize(1);
    result.policies[0].stats = base;
    const std::string before =
        paperbench::overallDigest(paperbench::paperCells({result}));
    ++result.policies[0].stats.recomputations;
    check(paperbench::overallDigest(paperbench::paperCells({result})) !=
              before,
          "an altered counter fails the pass digest");
    check(paperbench::breakevenCell("bfs", 3.8899999999999997).digest ==
              "3.8899999999999997",
          "break-even values are kept with %.17g");
}

}  // namespace

int
main()
{
    testDigestCoversEveryCounter();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
