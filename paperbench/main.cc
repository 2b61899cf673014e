/**
 * @file
 * One pass of one workload in a fresh process (run.py starts one per
 * pass, so peak RSS is the pass's own):
 *
 *   paperbench --workload <paper-cold|paper-warm|breakeven> --seed <n>
 *              [--cache-dir <dir>] [--traced --probe-dir <dir>
 *              --spans-out <file>]
 *
 * Prints one JSON object: set-up and pass times, rusage, cache
 * counts, the output cells with their digests and, for a traced pass,
 * the per-layer metrics. A traced pass writes its probes' host spans
 * to --spans-out as a Chrome trace, and their flame table (self time
 * per span name) to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "paperbench.h"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <paper-cold|paper-warm|breakeven> "
                 "--seed <n> [--cache-dir <dir>] [--traced --probe-dir "
                 "<dir> --spans-out <file>]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    // The pass pins every knob itself; the library's environment
    // fallbacks must not leak into a measurement.
    unsetenv("AMNESIAC_CACHE_DIR");
    unsetenv("AMNESIAC_LOG");

    paperbench::PassOptions options;
    std::string spans_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::stoull(value());
        else if (arg == "--cache-dir")
            options.cacheDir = value();
        else if (arg == "--probe-dir")
            options.probeDir = value();
        else if (arg == "--spans-out")
            spans_out = value();
        else if (arg == "--traced")
            options.traced = true;
        else
            usage(argv[0]);
    }
    if (options.workload.empty() ||
        (options.traced && (options.probeDir.empty() || spans_out.empty())))
        usage(argv[0]);

    try {
        const paperbench::PassResult result = paperbench::runPass(options);
        if (options.traced) {
            std::ofstream out(spans_out);
            out << amnesiac::renderHostSpanChromeTrace(result.spans);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
                return 1;
            }
            std::fprintf(stderr, "%s",
                         amnesiac::renderSpanFlameTable(result.spans).c_str());
        }
        std::printf("%s\n", paperbench::renderPassJson(options, result).c_str());
    } catch (const std::exception &error) {
        std::fprintf(stderr, "paperbench: %s\n", error.what());
        return 2;
    }
    return 0;
}
