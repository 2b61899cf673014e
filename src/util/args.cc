#include "util/args.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace amnesiac {

std::optional<std::uint64_t>
parseNumber(const std::string &text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    // A leading digit rules out the sign and blanks strtoull would
    // accept.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseReal(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

ArgReader::ArgReader(int argc, char **argv, std::string synopsis)
    : _argc(argc), _argv(argv), _synopsis(std::move(synopsis))
{
}

bool
ArgReader::next()
{
    if (_hasInline && !_consumed)
        fail(_arg + " takes no value");
    if (_index + 1 >= _argc)
        return false;
    _arg = _argv[++_index];
    _hasInline = false;
    _consumed = false;
    if (_arg.size() >= 2 && _arg[0] == '-') {
        if (auto eq = _arg.find('='); eq != std::string::npos) {
            _inline = _arg.substr(eq + 1);
            _arg.resize(eq);
            _hasInline = true;
        }
    }
    return true;
}

std::string
ArgReader::value()
{
    if (_hasInline) {
        _consumed = true;
        return _inline;
    }
    if (_index + 1 >= _argc)
        fail("missing value for " + _arg);
    return _argv[++_index];
}

std::uint64_t
ArgReader::number(std::uint64_t max)
{
    const std::string text = value();
    const std::optional<std::uint64_t> v = parseNumber(text, max);
    if (!v)
        fail("bad value '" + text + "' for " + _arg);
    return *v;
}

double
ArgReader::real()
{
    const std::string text = value();
    const std::optional<double> v = parseReal(text);
    if (!v)
        fail("bad value '" + text + "' for " + _arg);
    return *v;
}

const std::string &
ArgReader::positional()
{
    if (!_arg.empty() && _arg[0] == '-')
        unknown();
    return _arg;
}

void
ArgReader::unknown() const
{
    fail((!_arg.empty() && _arg[0] == '-' ? "unknown flag " :
                                            "unexpected argument ") +
         _arg);
}

void
ArgReader::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", _argv[0], message.c_str());
    printUsage(stderr);
    std::exit(2);
}

void
ArgReader::printUsage(std::FILE *out) const
{
    std::fprintf(out, "usage: %s %s\n", _argv[0], _synopsis.c_str());
}

}  // namespace amnesiac
