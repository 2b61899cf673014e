#include "obs/manifest.h"

#include <cinttypes>
#include <cstdio>

#include "util/json.h"

namespace amnesiac {

std::string
renderManifestJson(const RunManifest &manifest)
{
    // Field order is a contract: the deterministic fields (digest, seed,
    // jobs, prunedCandidates) render first so a byte-prefix of the
    // output serves as a determinism witness (tests pin this layout);
    // scheduling/wall-clock provenance follows.
    std::string out;
    json::Writer w(out);
    char buf[32];
    auto seconds = [&](std::string_view key, double sec) {
        std::snprintf(buf, sizeof(buf), "%.6f", sec);
        w.key(key).raw(buf);
    };
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, manifest.configDigest);
    w.beginObject().key("configDigest").string(buf);
    w.key("seed").integer(manifest.seed);
    w.key("jobsRequested").integer(manifest.jobsRequested);
    w.key("jobsEffective").integer(manifest.jobsEffective);
    w.key("prunedCandidates").integer(manifest.prunedCandidates);
    w.key("cacheHits").integer(manifest.cacheHits);
    w.key("cacheMisses").integer(manifest.cacheMisses);
    w.key("passes").beginObject();
    for (const PassTime &pass : manifest.passes)
        seconds(pass.name, pass.sec);
    w.endObject();
    const PhaseTimes &phases = manifest.phases;
    w.key("phases").beginObject();
    seconds("classicSec", phases.classicSec);
    seconds("compileSec", phases.compileSec);
    seconds("analysisSec", phases.analysisSec);
    seconds("profileSec", phases.profileSec);
    seconds("simulateSec", phases.simulateSec);
    seconds("totalSec", phases.totalSec);
    w.endObject();
    w.key("pool").beginObject();
    w.key("jobsExecuted").integer(manifest.pool.jobsExecuted);
    seconds("queueWaitSec", manifest.pool.queueWaitSec);
    seconds("workerBusySec", manifest.pool.workerBusySec);
    w.endObject().endObject();
    return out;
}

}  // namespace amnesiac
