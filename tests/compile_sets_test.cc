/**
 * @file
 * Equivalence proof for the shared compile (DESIGN.md §3h): one
 * AmnesicCompiler::compileSets call — one prune, one profiling run
 * under the intersection of the configurations' prune masks, one
 * dry-run replay — must give every configuration the artifact an
 * independent compile() under it gives. Artifacts are compared as
 * serialized artifact-cache entries (`.amnb` binary, CompileStats and
 * slices), over the full workload registry, both where the two slice
 * sets' masks agree and where the energy-floor rule prunes one set only.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <vector>

#include "core/compiler.h"
#include "report/artifact_cache.h"
#include "workloads/registry.h"

namespace amnesiac {
namespace {

namespace fs = std::filesystem;

/** The bytes the artifact cache stores for a compile result. */
std::vector<std::uint8_t>
entryBytes(const CompileResult &result)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("amnesiac-sets-" + std::to_string(::getpid()));
    ArtifactCache cache(dir.string());
    cache.store(1, result);
    std::ifstream in(cache.entryPath(1), std::ios::binary);
    EXPECT_TRUE(in.good()) << cache.entryPath(1);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    fs::remove_all(dir);
    return bytes;
}

/** The probabilistic and the Oracle slice set of one base config. */
std::vector<CompilerConfig>
probAndOracle(const CompilerConfig &base)
{
    CompilerConfig prob = base;
    prob.oracleSet = false;
    CompilerConfig oracle = base;
    oracle.oracleSet = true;
    return {prob, oracle};
}

/**
 * compileSets(configs) against one compile() per config, entry bytes
 * equal for each. Returns the shared results for further checks.
 */
std::vector<CompileResult>
expectSharedMatchesIndependent(const Workload &workload,
                               const std::vector<CompilerConfig> &configs)
{
    const EnergyModel energy;
    std::vector<CompileResult> shared =
        AmnesicCompiler(energy).compileSets(workload.program, configs);
    EXPECT_EQ(shared.size(), configs.size());
    for (std::size_t k = 0; k < configs.size() && k < shared.size(); ++k) {
        CompileResult alone = AmnesicCompiler(energy, {}, configs[k])
                                  .compile(workload.program);
        EXPECT_EQ(entryBytes(shared[k]), entryBytes(alone))
            << workload.name << ": config " << k
            << (configs[k].oracleSet ? " (oracle set)" : "");
    }
    return shared;
}

TEST(CompileSets, FullRegistryMatchesIndependentCompiles)
{
    for (const std::string &name : registeredWorkloads())
        expectSharedMatchesIndependent(makeWorkload(name),
                                       probAndOracle(CompilerConfig{}));
}

/**
 * A small budget margin lowers the Oracle set's energy floor
 * (budgetMargin × max Eld) far below the probabilistic set's, which
 * takes the larger profitabilityMargin: the prune rule D fires for the
 * Oracle set only, so the masks differ and the shared profile runs
 * under a strict intersection.
 */
TEST(CompileSets, FullRegistryMatchesWhenPruneMasksDiffer)
{
    CompilerConfig base;
    base.builder.budgetMargin = 0.01;
    bool masks_differ = false;
    for (const std::string &name : registeredWorkloads()) {
        std::vector<CompileResult> shared = expectSharedMatchesIndependent(
            makeWorkload(name), probAndOracle(base));
        masks_differ = masks_differ || shared[0].stats.prunedSites !=
                                           shared[1].stats.prunedSites;
    }
    EXPECT_TRUE(masks_differ)
        << "no workload pruned the two slice sets differently";
}

TEST(CompileSets, MixesPrunedAndUnprunedConfigs)
{
    // An unpruned config leaves nothing to intersect: the shared
    // profile skips no site, and the pruned config still counts its
    // own skipped sites exactly as its own profile would.
    CompilerConfig pruned;
    CompilerConfig unpruned;
    unpruned.prune = false;
    CompilerConfig oracle;
    oracle.oracleSet = true;
    std::vector<CompileResult> shared = expectSharedMatchesIndependent(
        makeWorkload("mcf"), {pruned, unpruned, oracle});
    ASSERT_EQ(shared.size(), 3u);
    EXPECT_GT(shared[0].stats.prunedSites, 0u);
    EXPECT_EQ(shared[1].stats.prunedSites, 0u);
}

TEST(CompileSets, SharedPassesAreChargedOnce)
{
    std::vector<CompileResult> shared =
        AmnesicCompiler(EnergyModel{})
            .compileSets(makeWorkload("stream-recompute").program,
                         probAndOracle(CompilerConfig{}));
    ASSERT_EQ(shared.size(), 2u);
    auto names = [](const CompileResult &result) {
        std::vector<std::string> out;
        for (const PassTime &pass : result.passTimes)
            out.push_back(pass.name);
        return out;
    };
    EXPECT_EQ(names(shared[0]),
              (std::vector<std::string>{"prune", "profile", "select",
                                        "dryrun", "rewrite", "gate"}));
    EXPECT_EQ(names(shared[1]),
              (std::vector<std::string>{"select", "rewrite", "gate"}));
    EXPECT_GT(shared[0].profileSec, 0.0);
    EXPECT_EQ(shared[1].profileSec, 0.0);
}

}  // namespace
}  // namespace amnesiac
