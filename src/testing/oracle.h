/**
 * @file
 * Differential oracle of the fuzzing harness. One GenCase runs through
 * the classic machine once and through the amnesic machine under every
 * requested policy; the oracle asserts the paper's transparency claim —
 * bit-identical architectural state and memory image — plus a battery
 * of energy/counter accounting invariants, and classifies every
 * fault-injected run as Masked (perturbation absorbed by the fallback
 * paths), Detected (divergence attributed to a registered fault and
 * flagged by the shadow check), or a genuine BUG (divergence with no
 * fired fault, silent divergence, or a placement-only fault changing
 * values).
 */

#ifndef AMNESIAC_TESTING_ORACLE_H
#define AMNESIAC_TESTING_ORACLE_H

#include <string>
#include <vector>

#include "sim/stats.h"
#include "testing/generator.h"

namespace amnesiac {

/** Outcome classification of one (case, policy) differential run. */
enum class Verdict : std::uint8_t {
    /** No fault planned or fired; all state identical, invariants hold. */
    Clean,
    /** Fault(s) fired but the architectural state still matches classic:
     * the microarchitecture absorbed the perturbation. */
    Masked,
    /** State diverged, every divergence is attributable to a registered
     * non-placement fault, and the shadow check flagged mismatches. */
    Detected,
    /** Harness-certified bug: divergence without a fired fault, silent
     * divergence (fault fired, state diverged, shadow check silent),
     * a placement-only fault changing values, or a broken accounting
     * invariant. */
    Bug,
};

std::string_view verdictName(Verdict verdict);

/** Everything the oracle observed about one policy's run. */
struct PolicyReport
{
    Policy policy = Policy::Compiler;
    Verdict verdict = Verdict::Clean;
    SimStats stats;
    /** Registered faults that actually fired this run. */
    std::vector<InjectedFault> injected;
    /** Mismatching registers (indexes into the 32-register file). */
    std::vector<std::uint32_t> divergedRegs;
    /** Count of mismatching memory words vs classic. */
    std::uint64_t divergedWords = 0;
    /** Byte address of the first mismatching word (when any). */
    std::uint64_t firstDivergedAddr = 0;
    /** Violated invariant descriptions (any entry forces Bug). */
    std::vector<std::string> violations;

    bool diverged() const { return !divergedRegs.empty() || divergedWords; }
};

/** Result of differential-checking one whole GenCase. */
struct DifferentialReport
{
    std::string label;
    /** Classic-run baseline statistics. */
    SimStats classicStats;
    std::vector<PolicyReport> policies;
    /** Analyzer findings on the compiled (probabilistic-set) binary. */
    std::size_t analyzerErrors = 0;
    std::size_t analyzerWarnings = 0;
    /** Static slices the compiler selected (probabilistic set). */
    std::size_t selectedSlices = 0;

    /** True when any policy run certified a bug (or the compiled
     * binary failed the analyzer). */
    bool failed() const;

    /** Multi-line human-readable rendering. */
    std::string render() const;
};

/**
 * Run the full differential check for one case. Compiles the case's
 * workload under one profile (the probabilistic slice set, plus the
 * oracle set when a requested policy needs it; see compileSets()),
 * analyzer-checks the binary, then executes classic + every requested
 * policy, attaching a fresh FaultInjector per amnesic run when the case
 * plans faults. Deterministic: same case, same report, byte for byte.
 *
 * `trace` (optional) is attached to every amnesic machine, which lets
 * tests prove the tracer's transparency: the report must be identical
 * with and without one (src/obs rides the same AmnesicTraceHooks).
 */
DifferentialReport runDifferential(const GenCase &test_case,
                                   AmnesicTraceHooks *trace = nullptr);

}  // namespace amnesiac

#endif  // AMNESIAC_TESTING_ORACLE_H
