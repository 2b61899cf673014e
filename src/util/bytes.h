/**
 * @file
 * The byte codec of the project's binary formats — the .amnb program
 * image (isa/serialize) and the .amnbc artifact-cache entry
 * (report/artifact_cache) — and the one FNV-1a hash, which checksums
 * both and digests the canonical config strings (obs/manifest).
 */

#ifndef AMNESIAC_UTIL_BYTES_H
#define AMNESIAC_UTIL_BYTES_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace amnesiac {

/** FNV-1a 64-bit. */
inline std::uint64_t
fnv1aDigest(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

inline std::uint64_t
fnv1aDigest(std::string_view bytes)
{
    return fnv1aDigest(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                       bytes.size());
}

/** True when `bytes` ends in the FNV-1a of everything before it. */
inline bool
checksumMatches(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < sizeof(std::uint64_t))
        return false;
    const std::size_t body = bytes.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + body, sizeof(stored));
    return fnv1aDigest(bytes.data(), body) == stored;
}

/** Append-only little-endian writer. */
class ByteWriter
{
  public:
    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint8_t raw[sizeof(T)];
        std::memcpy(raw, &value, sizeof(T));
        _out.insert(_out.end(), raw, raw + sizeof(T));
    }

    void
    putBytes(const void *data, std::size_t size)
    {
        const auto *raw = static_cast<const std::uint8_t *>(data);
        _out.insert(_out.end(), raw, raw + size);
    }

    /** Append the FNV-1a of everything written so far. */
    void putChecksum() { put(fnv1aDigest(_out.data(), _out.size())); }

    std::vector<std::uint8_t> take() { return std::move(_out); }
    const std::vector<std::uint8_t> &bytes() const { return _out; }

  private:
    std::vector<std::uint8_t> _out;
};

/** Bounds-checked reader; any overrun latches an error flag. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<std::uint8_t> &bytes)
        : _bytes(&bytes)
    {
    }

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (_failed || _pos + sizeof(T) > _bytes->size()) {
            _failed = true;
            return value;
        }
        std::memcpy(&value, _bytes->data() + _pos, sizeof(T));
        _pos += sizeof(T);
        return value;
    }

    bool
    getBytes(void *out, std::size_t size)
    {
        if (_failed || _pos + size > _bytes->size()) {
            _failed = true;
            return false;
        }
        std::memcpy(out, _bytes->data() + _pos, size);
        _pos += size;
        return true;
    }

    std::size_t remaining() const
    {
        return _failed ? 0 : _bytes->size() - _pos;
    }
    bool failed() const { return _failed; }

  private:
    const std::vector<std::uint8_t> *_bytes;
    std::size_t _pos = 0;
    bool _failed = false;
};

}  // namespace amnesiac

#endif  // AMNESIAC_UTIL_BYTES_H
