/**
 * @file
 * amnesiac-fuzz: differential fuzzing + fault-injection front end.
 *
 *   amnesiac-fuzz [options]
 *
 *   --seed <n>       master seed of the case stream (default 1)
 *   --runs <n>       number of generated cases to check (default 100)
 *   --start <n>      first case index (default 0; resume long campaigns)
 *   --fault-rate <p> probability a case carries a fault plan (default 0.5)
 *   --replay <file>  check one flat-JSON repro case instead of generating
 *   --minimize       shrink every failing case before reporting it
 *   --out <dir>      where failing cases are written (default fuzz-out)
 *   --quiet          only report failures and the final summary
 *
 * Every failing case is serialized twice into --out: the flat-JSON
 * repro (<label>.json, replayable and hand-editable) and the compiled
 * amnesic binary (<label>.amnb, for amnesiac-lint / amnesiac-run).
 * Exit status: 0 no failures, 1 at least one failure, 2 usage errors.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/compiler.h"
#include "isa/serialize.h"
#include "testing/generator.h"
#include "testing/minimize.h"
#include "testing/oracle.h"
#include "testing/repro.h"
#include "util/args.h"
#include "workloads/kernels.h"

namespace {

using namespace amnesiac;

/** Serialize a failing (possibly minimized) case into the out dir. */
void
persistFailure(const GenCase &test_case, const DifferentialReport &report,
               const std::string &out_dir)
{
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                     ec.message().c_str());
        return;
    }
    std::string stem = out_dir + "/" + test_case.label();

    std::ofstream json(stem + ".json");
    json << renderRepro(test_case);
    std::ofstream txt(stem + ".txt");
    txt << report.render();

    // The compiled amnesic binary, for the analyzer and run tools.
    Workload workload = buildWorkload(test_case.spec);
    AmnesicCompiler compiler(EnergyModel(test_case.energy),
                             test_case.hierarchy, test_case.compiler);
    saveProgram(compiler.compile(workload.program).program,
                stem + ".amnb");
    std::fprintf(stderr, "wrote %s.{json,txt,amnb}\n", stem.c_str());
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::uint64_t runs = 100;
    std::uint64_t start = 0;
    std::string replay_path;
    std::string out_dir = "fuzz-out";
    GeneratorConfig gen;
    bool minimize = false;
    bool quiet = false;

    ArgReader reader(argc, argv,
                     "[--seed <n>] [--runs <n>] [--start <n>] "
                     "[--fault-rate <p>] [--replay <file>] [--minimize] "
                     "[--out <dir>] [--quiet]");
    while (reader.next()) {
        const std::string &flag = reader.arg();
        if (flag == "--seed") {
            seed = reader.number();
        } else if (flag == "--runs") {
            runs = reader.number();
        } else if (flag == "--start") {
            start = reader.number();
        } else if (flag == "--fault-rate") {
            gen.faultProbability = reader.real();
        } else if (flag == "--replay") {
            replay_path = reader.value();
        } else if (flag == "--minimize") {
            minimize = true;
        } else if (flag == "--out") {
            out_dir = reader.value();
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            reader.unknown();
        }
    }

    std::uint64_t checked = 0;
    std::uint64_t failures = 0;
    std::uint64_t faulted = 0;
    std::uint64_t masked = 0;
    std::uint64_t detected = 0;

    auto check = [&](const GenCase &test_case) {
        DifferentialReport report = runDifferential(test_case);
        ++checked;
        if (!test_case.faults.empty())
            ++faulted;
        for (const PolicyReport &p : report.policies) {
            masked += p.verdict == Verdict::Masked;
            detected += p.verdict == Verdict::Detected;
        }

        if (!report.failed()) {
            if (!quiet)
                std::printf("%s", report.render().c_str());
            return;
        }
        ++failures;
        std::printf("FAILURE:\n%s", report.render().c_str());
        if (minimize) {
            MinimizeResult shrunk = minimizeCase(test_case);
            std::printf("minimized (%zu probes, %zu edits kept):\n%s",
                        shrunk.probes, shrunk.accepted,
                        shrunk.report.render().c_str());
            persistFailure(shrunk.minimized, shrunk.report, out_dir);
        } else {
            persistFailure(test_case, report, out_dir);
        }
    };

    if (!replay_path.empty()) {
        std::ifstream in(replay_path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", replay_path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        GenCase test_case;
        std::string error;
        if (!parseRepro(text.str(), test_case, error)) {
            std::fprintf(stderr, "%s: %s\n", replay_path.c_str(),
                         error.c_str());
            return 2;
        }
        check(test_case);
    } else {
        for (std::uint64_t i = start; i < start + runs; ++i) {
            check(generateCase(seed, i, gen));
            if (!quiet && checked % 50 == 0)
                std::fprintf(stderr,
                             "... %llu/%llu checked, %llu failures\n",
                             static_cast<unsigned long long>(checked),
                             static_cast<unsigned long long>(runs),
                             static_cast<unsigned long long>(failures));
        }
    }

    std::printf("fuzz summary: %llu cases (%llu with fault plans), "
                "%llu policy runs masked, %llu detected, %llu failures\n",
                static_cast<unsigned long long>(checked),
                static_cast<unsigned long long>(faulted),
                static_cast<unsigned long long>(masked),
                static_cast<unsigned long long>(detected),
                static_cast<unsigned long long>(failures));
    return failures ? 1 : 0;
}
