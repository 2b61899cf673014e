#include "report/artifact_cache.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "isa/serialize.h"
#include "obs/span.h"
#include "util/bytes.h"
#include "util/json.h"
#include "util/logging.h"

namespace amnesiac {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'N', 'C'};

void
putStats(ByteWriter &w, const CompileStats &s)
{
    w.put(s.sitesSeen);
    w.put(s.rejectedCold);
    w.put(s.rejectedUnstable);
    w.put(s.rejectedNoSlice);
    w.put(s.rejectedEnergy);
    w.put(s.rejectedMatch);
    w.put(s.selected);
    w.put(s.recInsertions);
    w.put(s.coveredDynLoads);
    w.put(s.totalDynLoads);
    w.put(s.analysisWarnings);
    w.put(s.analysisNotes);
    w.put(s.prunedSites);
    w.put(s.prunedProductions);
}

CompileStats
getStats(ByteReader &r)
{
    CompileStats s;
    s.sitesSeen = r.get<std::uint64_t>();
    s.rejectedCold = r.get<std::uint64_t>();
    s.rejectedUnstable = r.get<std::uint64_t>();
    s.rejectedNoSlice = r.get<std::uint64_t>();
    s.rejectedEnergy = r.get<std::uint64_t>();
    s.rejectedMatch = r.get<std::uint64_t>();
    s.selected = r.get<std::uint64_t>();
    s.recInsertions = r.get<std::uint64_t>();
    s.coveredDynLoads = r.get<std::uint64_t>();
    s.totalDynLoads = r.get<std::uint64_t>();
    s.analysisWarnings = r.get<std::uint64_t>();
    s.analysisNotes = r.get<std::uint64_t>();
    s.prunedSites = r.get<std::uint64_t>();
    s.prunedProductions = r.get<std::uint64_t>();
    return s;
}

void
putSlice(ByteWriter &w, const RSlice &slice)
{
    w.put(slice.loadPc);
    w.put(static_cast<std::uint64_t>(slice.instrs.size()));
    for (const SliceInstr &instr : slice.instrs) {
        w.put(instr.origPc);
        w.put(static_cast<std::uint8_t>(instr.op));
        w.put(instr.rd);
        w.put(instr.imm);
        w.put(static_cast<std::int32_t>(instr.numOps));
        w.put(static_cast<std::int32_t>(instr.level));
        w.put(instr.seq);
        for (const SliceOperand &op : instr.ops) {
            w.put(static_cast<std::uint8_t>(op.source));
            w.put(op.reg);
            w.put(op.producerIndex);
        }
    }
    w.put(slice.ercEstimate);
    w.put(slice.eldEstimate);
    w.put(slice.profCount);
    for (double p : slice.profResidence)
        w.put(p);
    w.put(slice.valueLocalityPct);
    w.put(slice.dryRunMatchRate);
}

bool
getSlice(ByteReader &r, RSlice &slice)
{
    slice.loadPc = r.get<std::uint32_t>();
    std::uint64_t count = r.get<std::uint64_t>();
    // Each instruction occupies >= 30 bytes on the wire; a count that
    // cannot fit in the remaining bytes is corruption, rejected before
    // it turns into an allocation.
    if (r.failed() || count > r.remaining() / 30)
        return false;
    slice.instrs.resize(static_cast<std::size_t>(count));
    for (SliceInstr &instr : slice.instrs) {
        instr.origPc = r.get<std::uint32_t>();
        std::uint8_t op = r.get<std::uint8_t>();
        if (op >= static_cast<std::uint8_t>(Opcode::NumOpcodes))
            return false;
        instr.op = static_cast<Opcode>(op);
        instr.rd = r.get<Reg>();
        instr.imm = r.get<std::int64_t>();
        instr.numOps = r.get<std::int32_t>();
        instr.level = r.get<std::int32_t>();
        instr.seq = r.get<std::uint64_t>();
        if (instr.numOps < 0 ||
            instr.numOps > static_cast<int>(instr.ops.size()))
            return false;
        for (SliceOperand &operand : instr.ops) {
            std::uint8_t source = r.get<std::uint8_t>();
            if (source > static_cast<std::uint8_t>(OperandSource::Live))
                return false;
            operand.source = static_cast<OperandSource>(source);
            operand.reg = r.get<Reg>();
            operand.producerIndex = r.get<std::int32_t>();
        }
    }
    slice.computeStats();
    slice.ercEstimate = r.get<double>();
    slice.eldEstimate = r.get<double>();
    slice.profCount = r.get<std::uint64_t>();
    for (double &p : slice.profResidence)
        p = r.get<double>();
    slice.valueLocalityPct = r.get<double>();
    slice.dryRunMatchRate = r.get<double>();
    return !r.failed();
}

}  // namespace

ArtifactCache::ArtifactCache(std::string dir)
    : _dir(std::move(dir))
{
}

void
appendConfigNum(std::string &out, const char *key, double value)
{
    out += key;
    out += '=';
    json::appendDouble(out, value);
    out += ';';
}

void
appendConfigU64(std::string &out, const char *key, std::uint64_t value)
{
    out += key;
    out += '=';
    json::appendU64(out, value);
    out += ';';
}

void
appendCompileConfig(std::string &out, const EnergyConfig &e,
                    const HierarchyConfig &h, const CompilerConfig &c)
{
    auto num = [&](const char *key, double value) {
        appendConfigNum(out, key, value);
    };
    auto u64 = [&](const char *key, std::uint64_t value) {
        appendConfigU64(out, key, value);
    };
    num("l1Nj", e.l1AccessNj);
    num("l2Nj", e.l2AccessNj);
    num("memRdNj", e.memReadNj);
    num("memWrNj", e.memWriteNj);
    num("histNj", e.histAccessNj);
    num("memCoreNj", e.memCoreNj);
    u64("l1Cyc", e.l1Cycles);
    u64("l2Cyc", e.l2Cycles);
    u64("memCyc", e.memCycles);
    u64("histCyc", e.histCycles);
    num("intAlu", e.intAluNj);
    num("intMul", e.intMulNj);
    num("intDiv", e.intDivNj);
    num("fpAlu", e.fpAluNj);
    num("fpMul", e.fpMulNj);
    num("fpDiv", e.fpDivNj);
    num("branch", e.branchNj);
    num("jump", e.jumpNj);
    num("nop", e.nopNj);
    num("scale", e.nonMemScale);
    num("ghz", e.frequencyGhz);

    u64("l1Size", h.l1.sizeBytes);
    u64("l1Ways", h.l1.ways);
    u64("l1Line", h.l1.lineBytes);
    u64("l2Size", h.l2.sizeBytes);
    u64("l2Ways", h.l2.ways);
    u64("l2Line", h.l2.lineBytes);

    // `prune` is deliberately absent: the pruner carries a
    // conservative-only contract (identical selected set and binary
    // either way, machine-checked), so prune on/off share a key.
    u64("sliceMaxInstrs", c.builder.maxInstrs);
    u64("sliceMaxHeight", c.builder.maxHeight);
    num("liveThresh", c.builder.liveThreshold);
    num("budgetMargin", c.builder.budgetMargin);
    num("stability", c.stabilityThreshold);
    num("matchThresh", c.matchThreshold);
    u64("minSiteCount", c.minSiteCount);
    num("profitMargin", c.profitabilityMargin);
    u64("globalModel", c.globalResidenceModel ? 1 : 0);
    u64("oracleSet", c.oracleSet ? 1 : 0);
}

std::uint64_t
ArtifactCache::key(const Program &program, const EnergyConfig &e,
                   const HierarchyConfig &h, const CompilerConfig &c)
{
    // Canonical string over every compile input that can change the
    // emitted bytes. Everything downstream of the compiler (amnesic
    // runtime, timing backend, experiment seed) is absent.
    std::string s;
    s.reserve(1024);
    std::vector<std::uint8_t> bytes = serializeProgram(program);
    appendConfigU64(s, "program", fnv1aDigest(bytes.data(), bytes.size()));
    appendConfigU64(s, "amnbVersion", kProgramFormatVersion);
    appendConfigU64(s, "cacheVersion", kArtifactCacheVersion);
    appendCompileConfig(s, e, h, c);
    appendConfigU64(s, "runLimit", c.runLimit);
    return fnv1aDigest(s);
}

std::string
ArtifactCache::entryPath(std::uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016" PRIx64 ".amnbc", key);
    return (std::filesystem::path(_dir) / name).string();
}

std::optional<CompileResult>
ArtifactCache::load(std::uint64_t key) const
{
    ScopedSpan span("cache:load");
    std::optional<CompileResult> result = loadValidated(key);
    span.counter("hit", result ? 1 : 0);
    if (result)
        span.counter("slices", result->slices.size());
    return result;
}

bool
ArtifactCache::holds(std::uint64_t key) const
{
    ScopedSpan span("cache:probe");
    std::error_code error;
    const bool present = std::filesystem::exists(entryPath(key), error);
    span.counter("present", present ? 1 : 0);
    return present;
}

std::optional<CompileResult>
ArtifactCache::loadValidated(std::uint64_t key) const
{
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return std::nullopt;

    // Whole-entry checksum first: any truncation or bit flip below the
    // trailing u64 fails here, before field-level parsing.
    if (bytes.size() < sizeof(kMagic) + sizeof(std::uint32_t) +
                           3 * sizeof(std::uint64_t))
        return std::nullopt;
    if (!checksumMatches(bytes))
        return std::nullopt;

    ByteReader r(bytes);
    char magic[4];
    if (!r.getBytes(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    if (r.get<std::uint32_t>() != kArtifactCacheVersion)
        return std::nullopt;
    if (r.get<std::uint64_t>() != key)
        return std::nullopt;

    std::uint64_t amnb_len = r.get<std::uint64_t>();
    if (r.failed() || amnb_len > r.remaining())
        return std::nullopt;
    std::vector<std::uint8_t> amnb(static_cast<std::size_t>(amnb_len));
    if (!r.getBytes(amnb.data(), amnb.size()))
        return std::nullopt;
    std::optional<Program> program = deserializeProgram(amnb);
    if (!program)
        return std::nullopt;

    CompileResult result;
    result.program = std::move(*program);
    result.stats = getStats(r);
    std::uint64_t slice_count = r.get<std::uint64_t>();
    if (r.failed() || slice_count > r.remaining() / sizeof(std::uint32_t))
        return std::nullopt;
    result.slices.resize(static_cast<std::size_t>(slice_count));
    for (RSlice &slice : result.slices)
        if (!getSlice(r, slice))
            return std::nullopt;
    if (r.failed())
        return std::nullopt;
    return result;
}

void
ArtifactCache::store(std::uint64_t key, const CompileResult &result) const
{
    ScopedSpan span("cache:publish");
    ByteWriter w;
    w.putBytes(kMagic, sizeof(kMagic));
    w.put(kArtifactCacheVersion);
    w.put(key);
    std::vector<std::uint8_t> amnb = serializeProgram(result.program);
    w.put(static_cast<std::uint64_t>(amnb.size()));
    w.putBytes(amnb.data(), amnb.size());
    putStats(w, result.stats);
    w.put(static_cast<std::uint64_t>(result.slices.size()));
    for (const RSlice &slice : result.slices)
        putSlice(w, slice);
    w.putChecksum();
    span.counter("bytes", w.bytes().size());

    // Unique temp name per writer, then an atomic rename: concurrent
    // stores of one key race harmlessly (their bytes are identical by
    // the determinism contract) and readers never see a torn file.
    static std::atomic<std::uint64_t> counter{0};
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    std::string path = entryPath(key);
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%" PRIu64,
                  static_cast<long>(::getpid()),
                  counter.fetch_add(1, std::memory_order_relaxed));
    std::string tmp = path + suffix;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(reinterpret_cast<const char *>(w.bytes().data()),
                       static_cast<std::streamsize>(w.bytes().size()))) {
            warn("artifact cache: failed to write " + tmp);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("artifact cache: failed to publish " + path + ": " +
             ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

std::string
resolveCacheDir(const std::string &explicit_dir)
{
    if (!explicit_dir.empty())
        return explicit_dir;
    if (const char *env = std::getenv("AMNESIAC_CACHE_DIR"))
        if (*env != '\0')
            return env;
    return "";
}

}  // namespace amnesiac
