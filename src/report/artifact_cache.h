/**
 * @file
 * Content-addressed on-disk cache of compiled amnesic binaries.
 * Profiling dominates the pipeline's compile phase; for a fixed
 * (program, energy model, hierarchy, compiler policy) tuple the
 * compiler is deterministic, so its output can be computed once and
 * replayed from disk forever.
 *
 * The key is an FNV-1a digest over a canonical string of every input
 * that can change the compiled bytes: the serialized input program,
 * the energy and hierarchy configuration, the content-affecting
 * compiler fields, the `.amnb` format version, and a cache-format salt.
 * The conservative-only pruner flag is deliberately excluded — pruned
 * and unpruned compiles emit byte-identical binaries (machine-checked
 * by the perf-smoke harness), so they rightly share an entry.
 *
 * Entry format (`<key>.amnbc`, little-endian, versioned):
 *   magic "AMNC" | u32 version | u64 key | u64 amnbLen | amnb bytes
 *   | CompileStats fields | u64 sliceCount | slices
 *   | u64 fnv1a checksum of everything before it
 *
 * Robustness contract: a missing, truncated, bit-flipped, or
 * version-skewed entry is a silent miss — the caller recompiles and
 * overwrites. Stores write a unique temp file and rename() it into
 * place, so concurrent writers of one key race atomically (last one
 * wins with identical bytes) and readers never observe a torn entry.
 */

#ifndef AMNESIAC_REPORT_ARTIFACT_CACHE_H
#define AMNESIAC_REPORT_ARTIFACT_CACHE_H

#include <optional>
#include <string>

#include "core/compiler.h"
#include "energy/epi.h"
#include "mem/hierarchy.h"

namespace amnesiac {

/** One cache directory; copyable handle, no open state. */
class ArtifactCache
{
  public:
    /** @param dir cache directory; created lazily on first store. */
    explicit ArtifactCache(std::string dir);

    /**
     * Cache key for compiling `program` under this exact model +
     * policy tuple. Pure function of its arguments.
     */
    static std::uint64_t key(const Program &program,
                             const EnergyConfig &energy,
                             const HierarchyConfig &hierarchy,
                             const CompilerConfig &compiler);

    /**
     * Look up a compiled artifact. Returns nullopt on miss or on any
     * validation failure (corruption, version skew, key mismatch).
     * A hit carries the stored binary, slices, and selection stats;
     * the wall-clock fields are zero (no work was done).
     */
    std::optional<CompileResult> load(std::uint64_t key) const;

    /** Whether an entry file for `key` exists. It may still fail to
     * load: only load() validates it. */
    bool holds(std::uint64_t key) const;

    /** Store a compiled artifact (atomic temp-file + rename; best
     * effort — I/O failure is logged and swallowed, the cache is an
     * accelerator, never a correctness dependency). */
    void store(std::uint64_t key, const CompileResult &result) const;

    /** Absolute path of the entry for `key` (exposed for tests). */
    std::string entryPath(std::uint64_t key) const;

    const std::string &dir() const { return _dir; }

  private:
    std::optional<CompileResult> loadValidated(std::uint64_t key) const;

    std::string _dir;
};

/** Entry format version (the salt; bump on any layout change). */
inline constexpr std::uint32_t kArtifactCacheVersion = 1;

/** Append one `key=value;` field to a canonical config string; doubles
 * print as `%.17g`, so equal values give equal bytes. */
void appendConfigNum(std::string &out, const char *key, double value);
void appendConfigU64(std::string &out, const char *key, std::uint64_t value);

/**
 * Append every compile input of the energy, hierarchy and compiler
 * configs except the compiler's run limit, whose key each caller
 * writes itself. ArtifactCache::key and
 * ExperimentRunner::canonicalConfigString share this one list, so a
 * field added here reaches both the cache key and the config digest.
 */
void appendCompileConfig(std::string &out, const EnergyConfig &energy,
                         const HierarchyConfig &hierarchy,
                         const CompilerConfig &compiler);

/**
 * Resolve the cache directory from the conventional knobs: an explicit
 * path wins, otherwise the AMNESIAC_CACHE_DIR environment variable,
 * otherwise empty (caching disabled — it is strictly opt-in).
 */
std::string resolveCacheDir(const std::string &explicit_dir);

}  // namespace amnesiac

#endif  // AMNESIAC_REPORT_ARTIFACT_CACHE_H
