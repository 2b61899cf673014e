/**
 * @file
 * amnesiac-lint: stand-alone front end of the static analyzer.
 *
 *   amnesiac-lint [options] [binary.amnb ...]
 *
 *   --workload <name>      compile a registered workload and lint the
 *                          amnesic binary (repeatable)
 *   --all                  lint every registered workload
 *   --case <case.json>     replay a fuzz repro: build its workload,
 *                          compile with the case's own configs, lint
 *                          against its capacities (repeatable)
 *   --seed <n>             workload seed (default 1)
 *   --sfile <n>            SFile capacity checked against (default 192)
 *   --hist <n>             Hist capacity checked against (default 600)
 *   --Werror               warnings gate like errors
 *   --json                 one JSON object per program instead of text
 *   --sarif                one SARIF 2.1.0 document over all programs
 *   --quiet                suppress clean reports
 *   --list-passes          print the pass pipeline and exit
 *   --explain <AMNxxx>     print the registry entry for a diagnostic id
 *   --help                 this text
 *
 * Positional arguments are serialized binaries (amnesiac-run --save).
 * Exit status: 0 all clean, 1 gating findings, 2 usage or load errors.
 */

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "core/compiler.h"
#include "isa/serialize.h"
#include "testing/repro.h"
#include "util/args.h"
#include "workloads/registry.h"

namespace {

using namespace amnesiac;

const char kSynopsis[] =
    "[options] [binary.amnb ...]\n"
    "\n"
    "  --workload <name>   compile a registered workload and lint the\n"
    "                      amnesic binary (repeatable)\n"
    "  --all               lint every registered workload\n"
    "  --case <case.json>  replay a fuzz repro: build its workload,\n"
    "                      compile with the case's configs, lint against\n"
    "                      its capacities (repeatable)\n"
    "  --seed <n>          workload seed (default 1)\n"
    "  --sfile <n>         SFile capacity checked against (default 192)\n"
    "  --hist <n>          Hist capacity checked against (default 600)\n"
    "  --Werror            warnings gate like errors\n"
    "  --json              one JSON object per program instead of text\n"
    "  --sarif             one SARIF 2.1.0 document over all programs\n"
    "  --quiet             suppress clean reports\n"
    "  --list-passes       print the pass pipeline and exit\n"
    "  --explain <AMNxxx>  print the registry entry for a diagnostic id\n"
    "  --help              this text\n"
    "\n"
    "exit status:\n"
    "  0  every linted program is clean (notes never gate; warnings\n"
    "     gate only under --Werror)\n"
    "  1  at least one program has gating findings\n"
    "  2  usage error, unknown workload/id, or unreadable input";

int
explainDiagnostic(const std::string &id)
{
    const DiagInfo *info = findDiagInfo(id);
    if (!info) {
        std::fprintf(stderr,
                     "unknown diagnostic id '%s' (see --list-passes "
                     "for the id ranges)\n",
                     id.c_str());
        return 2;
    }
    std::printf("%s (%s, default severity: %s)\n  %s\n\n  %s\n",
                std::string(info->id).c_str(),
                std::string(info->pass).c_str(),
                std::string(severityName(info->severity)).c_str(),
                std::string(info->title).c_str(),
                std::string(info->detail).c_str());
    return 0;
}

struct LintTarget
{
    std::string label;
    Program program;
    /** Capacities the report is checked against (fuzz cases carry
     * their own; everything else uses the command-line options). */
    AnalyzerOptions options;
};

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workload_names;
    std::vector<std::string> case_paths;
    std::vector<std::string> paths;
    std::uint64_t seed = 1;
    AnalyzerOptions options;
    bool all = false;
    bool werror = false;
    bool json = false;
    bool sarif = false;
    bool quiet = false;

    ArgReader reader(argc, argv, kSynopsis);
    while (reader.next()) {
        const std::string &flag = reader.arg();
        if (flag == "--workload") {
            workload_names.push_back(reader.value());
        } else if (flag == "--all") {
            all = true;
        } else if (flag == "--case") {
            case_paths.push_back(reader.value());
        } else if (flag == "--seed") {
            seed = reader.number();
        } else if (flag == "--sfile") {
            options.sfileCapacity = static_cast<std::uint32_t>(
                reader.number(std::numeric_limits<std::uint32_t>::max()));
        } else if (flag == "--hist") {
            options.histCapacity = static_cast<std::uint32_t>(
                reader.number(std::numeric_limits<std::uint32_t>::max()));
        } else if (flag == "--Werror") {
            werror = true;
        } else if (flag == "--json") {
            json = true;
        } else if (flag == "--sarif") {
            sarif = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--list-passes") {
            for (const PassInfo &pass : standardPasses())
                std::printf("%-12s %-14s %s\n",
                            std::string(pass.name).c_str(),
                            std::string(pass.idRange).c_str(),
                            std::string(pass.summary).c_str());
            return 0;
        } else if (flag == "--explain") {
            return explainDiagnostic(reader.value());
        } else if (flag == "--help") {
            reader.printUsage(stdout);
            return 0;
        } else {
            paths.push_back(reader.positional());
        }
    }
    if (all)
        workload_names = registeredWorkloads();
    if (workload_names.empty() && paths.empty() && case_paths.empty())
        reader.fail("nothing to lint");

    std::vector<LintTarget> targets;
    for (const std::string &path : paths) {
        std::string error;
        auto program = loadProgram(path, &error);
        if (!program) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
            return 2;
        }
        targets.push_back({path, std::move(*program), options});
    }
    for (const std::string &name : workload_names) {
        if (!isRegisteredWorkload(name)) {
            std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
            return 2;
        }
        // Same default pipeline as amnesiac-run: the lint target is the
        // amnesic binary the default experiment would simulate.
        Workload workload = makeWorkload(name, seed);
        AmnesicCompiler compiler(EnergyModel{}, HierarchyConfig{},
                                 CompilerConfig{});
        targets.push_back({name, compiler.compile(workload.program).program,
                           options});
    }
    for (const std::string &path : case_paths) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n", path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        GenCase fuzz_case;
        std::string error;
        if (!parseRepro(text.str(), fuzz_case, error)) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
            return 2;
        }
        Workload workload = buildWorkload(fuzz_case.spec);
        AmnesicCompiler compiler(EnergyModel{fuzz_case.energy},
                                 fuzz_case.hierarchy, fuzz_case.compiler);
        AnalyzerOptions case_options = options;
        case_options.sfileCapacity = fuzz_case.amnesic.sfileCapacity;
        case_options.histCapacity = fuzz_case.amnesic.histCapacity;
        case_options.energy = fuzz_case.energy;
        targets.push_back({path,
                           compiler.compile(workload.program).program,
                           case_options});
    }

    bool gated = false;
    std::vector<AnalysisReport> reports;
    reports.reserve(targets.size());
    for (const LintTarget &target : targets) {
        AnalysisReport report = analyzeProgram(target.program,
                                               target.options);
        report.programName = target.label;
        gated = gated || report.gates(werror);
        if (json) {
            std::printf("%s\n", report.renderJson().c_str());
        } else if (!sarif &&
                   (!quiet || report.count(Severity::Note) ||
                    report.warningCount() || report.errorCount())) {
            std::printf("== %s ==\n%s", target.label.c_str(),
                        report.renderText().c_str());
        }
        reports.push_back(std::move(report));
    }
    if (sarif)
        std::printf("%s\n", renderSarif(reports).c_str());
    return gated ? 1 : 0;
}
