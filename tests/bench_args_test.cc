/**
 * @file
 * Tests for the command-line parser shared by the bench harnesses
 * (bench/common.h over util/args.h): well-formed values parse, and a
 * numeric flag whose value does not parse in full, or does not fit, a
 * missing value and a value on a switch each exit with the usage
 * message. No case here starts a run.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/common.h"

namespace amnesiac::bench {
namespace {

BenchArgs
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "harness");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, ParsesNumericFlags)
{
    BenchArgs args = parse({"--jobs", "3", "--seed=7919", "--scale", "2.5",
                            "--max-records", "100"});
    EXPECT_EQ(args.config.jobs, 3u);
    EXPECT_EQ(args.seed, 7919u);
    EXPECT_EQ(args.config.seed, 7919u);
    EXPECT_DOUBLE_EQ(args.config.energy.nonMemScale, 2.5);
    EXPECT_EQ(args.config.traceMaxRecords, 100u);

    // The largest values that fit; parsing starts no run.
    args = parse({"--jobs", "4294967295", "--seed", "18446744073709551615"});
    EXPECT_EQ(args.config.jobs, 4294967295u);
    EXPECT_EQ(args.seed, 18446744073709551615u);
}

TEST(BenchArgs, RejectsNonNumericValues)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--jobs", "x"},
        {"--jobs=4x"},
        {"--jobs", ""},
        {"--jobs", "-1"},
        {"--seed", "1e3"},
        {"--scale", "x"},
        {"--scale=1.5x"},
        {"--scale", ""},
        {"--scale", "nan"},
        {"--max-records", "10k"},
        {"--seed", "18446744073709551616"},
        // Fits in 64 bits but not in the unsigned worker count; it
        // used to truncate to 1.
        {"--jobs", "4294967297"},
        {"--jobs=4294967296"},
    };
    for (const std::vector<std::string> &args : bad) {
        EXPECT_EXIT(parse(args), ::testing::ExitedWithCode(2),
                    "bad value .*usage:")
            << args[0];
    }
    // An empty inline value is a value, and not a number.
    EXPECT_EXIT(parse({"--seed="}), ::testing::ExitedWithCode(2),
                "bad value '' for --seed.*usage:");
}

TEST(BenchArgs, RejectsAMissingValue)
{
    EXPECT_EXIT(parse({"--seed", "3", "--jobs"}),
                ::testing::ExitedWithCode(2),
                "missing value for --jobs.*usage:");
}

TEST(BenchArgs, RejectsAValueOnASwitch)
{
    // It used to disable the cache whatever the value said.
    EXPECT_EXIT(parse({"--no-cache=1"}), ::testing::ExitedWithCode(2),
                "--no-cache takes no value.*usage:");
}

}  // namespace
}  // namespace amnesiac::bench
