#include "util/json.h"

#include <cinttypes>
#include <cstdio>

namespace amnesiac::json {

void
appendString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendDouble(std::string &out, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    out += buf;
}

void
Writer::element()
{
    if (_continues) {
        _continues = false;
        return;
    }
    if (_nonEmpty.empty())
        return;
    if (_nonEmpty.back())
        _out += ',';
    _nonEmpty.back() = true;
}

Writer &
Writer::open(char bracket)
{
    element();
    _out += bracket;
    _nonEmpty.push_back(false);
    return *this;
}

Writer &
Writer::close(char bracket)
{
    _nonEmpty.pop_back();
    _out += bracket;
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    element();
    appendString(_out, name);
    _out += ':';
    _continues = true;
    return *this;
}

Writer &
Writer::string(std::string_view text)
{
    element();
    appendString(_out, text);
    return *this;
}

Writer &
Writer::integer(std::uint64_t value)
{
    element();
    appendU64(_out, value);
    return *this;
}

Writer &
Writer::number(double value)
{
    element();
    appendDouble(_out, value);
    return *this;
}

Writer &
Writer::boolean(bool value)
{
    element();
    _out += value ? "true" : "false";
    return *this;
}

Writer &
Writer::raw(std::string_view json)
{
    element();
    _out += json;
    return *this;
}

bool
Writer::separate()
{
    const std::size_t before = _out.size();
    element();
    _continues = true;
    return _out.size() != before;
}

}  // namespace amnesiac::json
