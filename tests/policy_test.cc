/**
 * @file
 * Tests for the policy enumeration helpers.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/policy.h"

namespace amnesiac {
namespace {

TEST(Policy, NamesMatchPaperLegends)
{
    EXPECT_EQ(policyName(Policy::Oracle), "Oracle");
    EXPECT_EQ(policyName(Policy::COracle), "C-Oracle");
    EXPECT_EQ(policyName(Policy::Compiler), "Compiler");
    EXPECT_EQ(policyName(Policy::FLC), "FLC");
    EXPECT_EQ(policyName(Policy::LLC), "LLC");
}

TEST(Policy, AllPoliciesInPlottingOrder)
{
    ASSERT_EQ(std::size(kAllPolicies), 5u);
    EXPECT_EQ(kAllPolicies[0], Policy::Oracle);
    EXPECT_EQ(kAllPolicies[4], Policy::LLC);
}

TEST(Policy, OnlyOracleNeedsTheOracleSet)
{
    EXPECT_TRUE(needsOracleSet(Policy::Oracle));
    EXPECT_FALSE(needsOracleSet(Policy::COracle));
    EXPECT_FALSE(needsOracleSet(Policy::Compiler));
    EXPECT_FALSE(needsOracleSet(Policy::FLC));
    EXPECT_FALSE(needsOracleSet(Policy::LLC));
}

TEST(Policy, ParseRoundTripsEveryName)
{
    for (Policy policy : {Policy::Compiler, Policy::FLC, Policy::LLC,
                          Policy::COracle, Policy::Oracle, Policy::Predictor}) {
        Policy parsed = policy == Policy::FLC ? Policy::LLC : Policy::FLC;
        EXPECT_TRUE(parsePolicy(std::string(policyName(policy)), parsed));
        EXPECT_EQ(parsed, policy);
    }
    // Names are case-sensitive, and a failed parse leaves `out` alone.
    Policy out = Policy::Oracle;
    EXPECT_FALSE(parsePolicy("flc", out));
    EXPECT_FALSE(parsePolicy("", out));
    EXPECT_EQ(out, Policy::Oracle);
}

}  // namespace
}  // namespace amnesiac
