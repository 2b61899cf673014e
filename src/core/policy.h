/**
 * @file
 * Runtime recomputation policies of the amnesic scheduler (§3.3.1,
 * §5.1).
 */

#ifndef AMNESIAC_CORE_POLICY_H
#define AMNESIAC_CORE_POLICY_H

#include <string>
#include <string_view>

namespace amnesiac {

/** When does an RCMP fire recomputation? */
enum class Policy
{
    /** Always recompute (runtime-oblivious compiler hint, §3.3.1). */
    Compiler,
    /** Recompute on a first-level (L1-D) cache miss; the probe is
     * charged. */
    FLC,
    /** Recompute on a last-level (L2) cache miss; the deeper probe is
     * charged. */
    LLC,
    /** 100%-accurate free residence prediction over the compiler's
     * probabilistic slice set (§5.1). */
    COracle,
    /** Same prediction over the optimal (unfiltered) slice set (§5.1).
     * The binary must have been compiled with CompilerConfig::oracleSet. */
    Oracle,
    /**
     * Future-work policy from §3.3.1: a per-site miss predictor decides
     * without probing the caches, "which can also help eliminate the
     * probing overhead". Not part of the paper's evaluated set — used
     * by the predictor ablation.
     */
    Predictor,
};

/** Printable policy name (matching the paper's legends). */
constexpr std::string_view
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Compiler: return "Compiler";
      case Policy::FLC:      return "FLC";
      case Policy::LLC:      return "LLC";
      case Policy::COracle:  return "C-Oracle";
      case Policy::Oracle:   return "Oracle";
      case Policy::Predictor: return "Predictor";
    }
    return "?";
}

/** Parse a policyName(); false (and `out` untouched) on failure. */
inline bool
parsePolicy(const std::string &name, Policy &out)
{
    for (Policy policy : {Policy::Compiler, Policy::FLC, Policy::LLC,
                          Policy::COracle, Policy::Oracle, Policy::Predictor})
        if (name == policyName(policy)) {
            out = policy;
            return true;
        }
    return false;
}

/** All policies in the paper's plotting order. */
inline constexpr Policy kAllPolicies[] = {
    Policy::Oracle, Policy::COracle, Policy::Compiler, Policy::FLC,
    Policy::LLC,
};

/** True if the policy needs the oracle-set binary. */
constexpr bool
needsOracleSet(Policy policy)
{
    return policy == Policy::Oracle;
}

/** True for the policies the paper's figures evaluate. */
constexpr bool
isPaperPolicy(Policy policy)
{
    return policy != Policy::Predictor;
}

}  // namespace amnesiac

#endif  // AMNESIAC_CORE_POLICY_H
