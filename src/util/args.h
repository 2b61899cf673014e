/**
 * @file
 * The one command-line reader of the project's drivers, harnesses and
 * tools. It splits `--flag=value`, takes a flag's value inline or from
 * the next argument, and turns every malformed argument into the same
 * usage error: a one-line reason, the usage text, exit status 2. A typo
 * therefore never silently runs the default experiment.
 */

#ifndef AMNESIAC_UTIL_ARGS_H
#define AMNESIAC_UTIL_ARGS_H

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

namespace amnesiac {

/**
 * `text` as a decimal integer no larger than `max`, or nullopt unless
 * all of it parses: "--jobs x" is a typo, not a request for the
 * default, and "--jobs 4294967297" must not wrap to 1.
 */
std::optional<std::uint64_t>
parseNumber(const std::string &text,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** `text` as a finite real, or nullopt unless all of it parses. */
std::optional<double> parseReal(const std::string &text);

/**
 * Walks argv one argument at a time:
 *
 *   ArgReader reader(argc, argv, "[--seed <n>] <workload>");
 *   while (reader.next()) {
 *       if (reader.arg() == "--seed")
 *           seed = reader.number();
 *       else
 *           workload = reader.positional();
 *   }
 *
 * A `-`-prefixed argument is a flag; `--flag=value` is split at the
 * first `=`. An inline value the flag did not consume (`--csv=no`) is a
 * usage error, as is any flag the caller does not recognize.
 */
class ArgReader
{
  public:
    /** `synopsis` follows "usage: <argv[0]> " in the usage text. */
    ArgReader(int argc, char **argv, std::string synopsis);

    /** Step to the next argument; false past the last one. */
    bool next();

    /** The current argument; for a flag, without its `=value`. */
    const std::string &arg() const { return _arg; }

    /** The flag's value: the inline one, else the next argument. */
    std::string value();

    /** The value as a decimal integer no larger than `max`. */
    std::uint64_t
    number(std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

    /** The value as a finite real. */
    double real();

    /** The current argument as a positional one; a flag is unknown. */
    const std::string &positional();

    /** Report the current argument as one nobody asked for. */
    [[noreturn]] void unknown() const;

    /** Print "<argv[0]>: <message>" and the usage, then exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    void printUsage(std::FILE *out) const;

  private:
    int _argc;
    char **_argv;
    std::string _synopsis;
    int _index = 0;
    std::string _arg;
    std::string _inline;
    bool _hasInline = false;
    bool _consumed = false;
};

}  // namespace amnesiac

#endif  // AMNESIAC_UTIL_ARGS_H
