/**
 * @file
 * The project's one JSON writer. Lint JSON and SARIF, trace JSONL
 * streams, Chrome/Perfetto traces, the run manifest and the BENCH_*.json
 * files all go through it, so string escaping, the shared number
 * formats and comma placement are decided here and nowhere else.
 *
 * `Writer` appends compact JSON to a caller-owned string and places the
 * commas and nesting itself. It has no layout options: a renderer that
 * puts a newline between elements calls separate() and appends the
 * newline itself, and a number the caller wants in its own format
 * (`%.6f` seconds, microseconds with three decimals) goes in through
 * raw(). Like the span layer below it, this depends on nothing but the
 * standard library.
 */

#ifndef AMNESIAC_UTIL_JSON_H
#define AMNESIAC_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace amnesiac::json {

/** Append `text` as a quoted JSON string: `"`, `\` and every byte
 * below 0x20 are escaped (`\n`, `\t`, else `\u00XX`); DEL and UTF-8
 * bytes pass through unchanged. */
void appendString(std::string &out, std::string_view text);

/** `%.17g`: round-trips every double, so equal values give equal
 * bytes. */
void appendDouble(std::string &out, double value);

void appendU64(std::string &out, std::uint64_t value);

/** Compact JSON appender with automatic commas. At the top level
 * (no open container) values are written back to back with no comma,
 * so one writer can emit a JSONL stream. */
class Writer
{
  public:
    explicit Writer(std::string &out) : _out(out) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Object key; the next call writes its value. */
    Writer &key(std::string_view name);

    Writer &string(std::string_view text);
    Writer &integer(std::uint64_t value);
    /** A double in the shared `%.17g` format. */
    Writer &number(double value);
    Writer &boolean(bool value);
    /** A value the caller rendered itself: a number in a format of its
     * own, or a whole JSON document to nest. */
    Writer &raw(std::string_view json);

    /**
     * Write now the comma that the next element of the open container
     * would write, so the caller can put layout (a newline) between
     * the comma and the element. Returns whether a comma was written
     * (false before the container's first element).
     */
    bool separate();

  private:
    /** Comma bookkeeping before any key or value. */
    void element();
    Writer &open(char bracket);
    Writer &close(char bracket);

    std::string &_out;
    /** One entry per open container: has it an element yet? */
    std::vector<bool> _nonEmpty;
    /** The next element follows a key() or separate(): no comma. */
    bool _continues = false;
};

}  // namespace amnesiac::json

#endif  // AMNESIAC_UTIL_JSON_H
