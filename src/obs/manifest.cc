#include "obs/manifest.h"

#include <cinttypes>
#include <cstdio>

namespace amnesiac {

std::uint64_t
fnv1aDigest(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
renderManifestJson(const RunManifest &manifest)
{
    // Field order is a contract: the deterministic fields (digest, seed,
    // jobs, prunedCandidates) render first so a byte-prefix of the
    // output serves as a determinism witness (tests pin this layout);
    // scheduling/wall-clock provenance follows.
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"configDigest\":\"%016" PRIx64 "\",\"seed\":%" PRIu64
        ",\"jobsRequested\":%u,\"jobsEffective\":%u,"
        "\"prunedCandidates\":%" PRIu64 ","
        "\"cacheHits\":%u,\"cacheMisses\":%u,",
        manifest.configDigest, manifest.seed, manifest.jobsRequested,
        manifest.jobsEffective, manifest.prunedCandidates,
        manifest.cacheHits, manifest.cacheMisses);
    std::string out = buf;
    out += "\"passes\":{";
    bool first = true;
    for (const PassTime &pass : manifest.passes) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += pass.name;  // pass names are static identifiers
        out += '"';
        std::snprintf(buf, sizeof(buf), ":%.6f", pass.sec);
        out += buf;
    }
    out += "},";
    std::snprintf(
        buf, sizeof(buf),
        "\"phases\":{\"classicSec\":%.6f,\"compileSec\":%.6f,"
        "\"analysisSec\":%.6f,\"profileSec\":%.6f,"
        "\"simulateSec\":%.6f,\"totalSec\":%.6f},"
        "\"pool\":{\"jobsExecuted\":%" PRIu64
        ",\"queueWaitSec\":%.6f,\"workerBusySec\":%.6f}}",
        manifest.phases.classicSec, manifest.phases.compileSec,
        manifest.phases.analysisSec, manifest.phases.profileSec,
        manifest.phases.simulateSec, manifest.phases.totalSec,
        manifest.pool.jobsExecuted, manifest.pool.queueWaitSec,
        manifest.pool.workerBusySec);
    out += buf;
    return out;
}

}  // namespace amnesiac
