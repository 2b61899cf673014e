#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/analyzer.h"
#include "core/compiler.h"
#include "sim/machine.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads/kernels.h"

namespace amnesiac {

std::string_view
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Clean:    return "Clean";
      case Verdict::Masked:   return "Masked";
      case Verdict::Detected: return "Detected";
      case Verdict::Bug:      return "BUG";
    }
    return "?";
}

namespace {

/** Architectural snapshot of a finished run. */
struct ArchState
{
    std::array<std::uint64_t, kNumRegs> regs{};
    std::vector<std::uint64_t> memory;
};

ArchState
snapshot(const Machine &machine)
{
    ArchState state;
    for (Reg r = 0; r < kNumRegs; ++r)
        state.regs[r] = machine.reg(r);
    std::size_t words = machine.program().dataImage.size();
    state.memory.resize(words);
    for (std::size_t w = 0; w < words; ++w)
        state.memory[w] = machine.peekWord(w * 8);
    return state;
}

void
compareStates(const ArchState &classic, const ArchState &amnesic,
              PolicyReport &report)
{
    for (Reg r = 0; r < kNumRegs; ++r)
        if (classic.regs[r] != amnesic.regs[r])
            report.divergedRegs.push_back(r);
    if (classic.memory.size() != amnesic.memory.size()) {
        report.violations.push_back("memory image size mismatch");
        return;
    }
    for (std::size_t w = 0; w < classic.memory.size(); ++w) {
        if (classic.memory[w] == amnesic.memory[w])
            continue;
        if (report.divergedWords == 0)
            report.firstDivergedAddr = w * 8;
        ++report.divergedWords;
    }
}

void
checkEnergy(const EnergyBreakdown &energy, const char *who,
            std::vector<std::string> &violations)
{
    const double buckets[] = {energy.loadNj, energy.storeNj,
                              energy.nonMemNj, energy.histReadNj};
    const char *names[] = {"load", "store", "nonMem", "histRead"};
    for (std::size_t i = 0; i < 4; ++i) {
        if (!std::isfinite(buckets[i]) || buckets[i] < 0.0) {
            std::ostringstream os;
            os << who << " energy bucket " << names[i]
               << " is negative or non-finite: " << buckets[i];
            violations.push_back(os.str());
        }
    }
}

std::uint64_t
sumCategories(const SimStats &stats)
{
    std::uint64_t sum = 0;
    for (std::uint64_t n : stats.perCategory)
        sum += n;
    return sum;
}

/** The accounting invariants every amnesic run must satisfy — with or
 * without injected faults (faults perturb values, never bookkeeping). */
void
checkInvariants(const SimStats &classic, const SimStats &am,
                bool shadow_check, std::vector<std::string> &violations)
{
    auto fail = [&](const char *what, std::uint64_t lhs,
                    std::uint64_t rhs) {
        std::ostringstream os;
        os << what << " (" << lhs << " vs " << rhs << ")";
        violations.push_back(os.str());
    };

    // Every RCMP resolves to exactly one of {recomputation, fallback},
    // and each swapped site was one classic load.
    if (am.rcmpSeen != am.recomputations + am.fallbackLoads)
        fail("rcmpSeen != recomputations + fallbackLoads", am.rcmpSeen,
             am.recomputations + am.fallbackLoads);
    if (classic.dynLoads != am.dynLoads + am.recomputations)
        fail("classic.dynLoads != amnesic.dynLoads + recomputations",
             classic.dynLoads, am.dynLoads + am.recomputations);
    if (shadow_check && am.recomputeChecked != am.recomputations)
        fail("recomputeChecked != recomputations", am.recomputeChecked,
             am.recomputations);
    if (sumCategories(am) != am.dynInstrs)
        fail("sum(perCategory) != dynInstrs", sumCategories(am),
             am.dynInstrs);
    // Recomputation re-executes work; it never removes instructions.
    if (am.dynInstrs < classic.dynInstrs)
        fail("amnesic.dynInstrs < classic.dynInstrs", am.dynInstrs,
             classic.dynInstrs);
    std::uint64_t swapped = am.swappedByLevel[0] + am.swappedByLevel[1] +
                            am.swappedByLevel[2];
    if (swapped != am.recomputations)
        fail("sum(swappedByLevel) != recomputations", swapped,
             am.recomputations);
    std::uint64_t fell = am.fallbackByLevel[0] + am.fallbackByLevel[1] +
                         am.fallbackByLevel[2];
    if (fell != am.fallbackLoads)
        fail("sum(fallbackByLevel) != fallbackLoads", fell,
             am.fallbackLoads);
    checkEnergy(am.energy, "amnesic", violations);
}

Verdict
classify(const PolicyReport &report, const FaultInjector *injector)
{
    if (!report.violations.empty())
        return Verdict::Bug;

    bool fired = injector && injector->anyFired();
    if (!report.diverged()) {
        // A flagged shadow-check mismatch with no fault to blame means
        // recomputation produced a wrong value on its own — a bug even
        // though the final state happened to reconverge.
        if (!fired && report.stats.recomputeMismatches > 0)
            return Verdict::Bug;
        return fired ? Verdict::Masked : Verdict::Clean;
    }

    // State diverged from classic.
    if (!fired)
        return Verdict::Bug;  // transparency violation, nothing injected
    if (injector->firedOnlyPlacementFaults())
        return Verdict::Bug;  // placement faults must never change values
    // Value faults must be caught by the shadow check: a divergence the
    // checker never flagged is a *silent* corruption — the harness
    // exists to prove these cannot happen.
    if (report.stats.recomputeMismatches == 0)
        return Verdict::Bug;
    return Verdict::Detected;
}

}  // namespace

bool
DifferentialReport::failed() const
{
    if (analyzerErrors > 0)
        return true;
    for (const PolicyReport &p : policies)
        if (p.verdict == Verdict::Bug)
            return true;
    return false;
}

std::string
DifferentialReport::render() const
{
    std::ostringstream os;
    os << label << ": slices=" << selectedSlices
       << " analyzer=" << analyzerErrors << "E/" << analyzerWarnings
       << "W classic{instrs=" << classicStats.dynInstrs
       << " loads=" << classicStats.dynLoads << "}\n";
    for (const PolicyReport &p : policies) {
        os << "  " << policyName(p.policy) << ": "
           << verdictName(p.verdict) << " recomp=" << p.stats.recomputations
           << "/" << p.stats.rcmpSeen
           << " mismatchFlags=" << p.stats.recomputeMismatches;
        if (p.diverged())
            os << " divergedRegs=" << p.divergedRegs.size()
               << " divergedWords=" << p.divergedWords << " firstAddr=0x"
               << std::hex << p.firstDivergedAddr << std::dec;
        if (!p.injected.empty()) {
            os << " faults[";
            for (std::size_t i = 0; i < p.injected.size(); ++i) {
                if (i)
                    os << ", ";
                os << faultKindName(p.injected[i].kind) << "@"
                   << p.injected[i].atEvent << "x" << p.injected[i].hits;
            }
            os << "]";
        }
        for (const std::string &v : p.violations)
            os << "\n    violation: " << v;
        os << "\n";
    }
    return os.str();
}

DifferentialReport
runDifferential(const GenCase &test_case, AmnesicTraceHooks *trace)
{
    DifferentialReport report;
    report.label = test_case.label();

    Workload workload = buildWorkload(test_case.spec);
    EnergyModel energy(test_case.energy);

    // The probabilistic slice set, plus the oracle set when a requested
    // policy needs it: one compileSets() call profiles the program once
    // for both.
    std::vector<CompilerConfig> configs = {test_case.compiler};
    if (std::any_of(test_case.policies.begin(), test_case.policies.end(),
                    needsOracleSet)) {
        configs.push_back(test_case.compiler);
        configs.back().oracleSet = true;
    }
    const std::vector<CompileResult> compiled =
        AmnesicCompiler(energy, test_case.hierarchy)
            .compileSets(workload.program, configs);
    const CompileResult &prob = compiled.front();
    const CompileResult &oracle = compiled.back();  // if asked for
    report.selectedSlices = prob.slices.size();

    // The compiler's own gate aborts on Error findings; re-running the
    // analyzer here additionally counts the surviving severities against
    // the fuzzed (possibly undersized) runtime capacities.
    AnalyzerOptions options;
    options.sfileCapacity = test_case.amnesic.sfileCapacity;
    options.histCapacity = test_case.amnesic.histCapacity;
    options.energy = test_case.energy;
    AnalysisReport analysis = analyzeProgram(prob.program, options);
    report.analyzerErrors = analysis.errorCount();
    report.analyzerWarnings = analysis.warningCount();

    // Baseline: the unmodified program on the classic machine.
    Machine classic(workload.program, energy, test_case.hierarchy,
                    test_case.timing);
    classic.run(test_case.runLimit);
    AMNESIAC_ASSERT(classic.halted(), "classic run hit the run limit");
    report.classicStats = classic.stats();
    ArchState classic_state = snapshot(classic);
    // Classic-side accounting problems taint every policy verdict.
    std::vector<std::string> classic_violations;
    checkEnergy(report.classicStats.energy, "classic",
                classic_violations);

    std::uint64_t case_key = Xorshift64Star::deriveSeed(
        test_case.masterSeed, test_case.index);
    for (Policy policy : test_case.policies) {
        PolicyReport &pr = report.policies.emplace_back();
        pr.policy = policy;
        pr.violations = classic_violations;

        AmnesicConfig config = test_case.amnesic;
        config.policy = policy;
        const Program &binary =
            needsOracleSet(policy) ? oracle.program : prob.program;
        AmnesicMachine machine(binary, energy, config,
                               test_case.hierarchy, test_case.timing);
        machine.setTraceHooks(trace);

        FaultInjector injector(
            test_case.faults,
            Xorshift64Star::deriveSeed(
                case_key, 100 + static_cast<std::uint64_t>(policy)));
        if (test_case.faults.empty())
            machine.run(test_case.runLimit);
        else
            injector.run(machine, test_case.runLimit);
        AMNESIAC_ASSERT(machine.halted(), "amnesic run hit the run limit");
        pr.stats = machine.stats();
        pr.injected = injector.injected();

        compareStates(classic_state, snapshot(machine), pr);
        checkInvariants(report.classicStats, pr.stats,
                        config.shadowCheck, pr.violations);
        pr.verdict = classify(
            pr, test_case.faults.empty() ? nullptr : &injector);
    }
    return report;
}

}  // namespace amnesiac
