/**
 * @file
 * Timing-backend throughput microbenchmark: times classic
 * interpretation under the scalar (golden) and pipelined cycle
 * backends over the workload registry and emits BENCH_timing.json so
 * both the simulator-throughput cost of the hazard accounting and the
 * modeled cycle inflation are tracked across PRs.
 *
 * Two numbers per workload matter here:
 *
 *  - host throughput (instrs/s) under each backend — the pipelined
 *    backend's onRetire call is the only addition to the hot loop, so
 *    the scalar/pipelined ratio is exactly the price of hazard
 *    accounting (and the scalar path must not regress at all: the
 *    retire hook compiles out of the scalar template instantiation);
 *
 *  - modeled cycle inflation % — how many extra cycles the 5-stage
 *    hazards add over the scalar model, which by the additive contract
 *    equals hazardCycles()/scalar.cycles.
 *
 * Methodology matches perf_interp: best-of-`--repeats` on a freshly
 * constructed machine per repeat; CI gates only on "runs and emits
 * valid JSON", never on thresholds.
 *
 *   perf_timing [--quick] [--repeats <n>] [--out <path>]
 *               [--predictor <nottaken|bimodal|gshare>]
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "timing/timing.h"
#include "util/args.h"
#include "util/json.h"
#include "workloads/registry.h"

namespace {

using amnesiac::EnergyConfig;
using amnesiac::EnergyModel;
using amnesiac::HierarchyConfig;
using amnesiac::Machine;
using amnesiac::PredictorKind;
using amnesiac::TimingBackend;
using amnesiac::TimingConfig;
using amnesiac::Workload;

using WallClock = std::chrono::steady_clock;

constexpr std::uint64_t kRunLimit = 1ull << 32;

double
secondsSince(WallClock::time_point start)
{
    return std::chrono::duration<double>(WallClock::now() - start).count();
}

/** One backend's timed runs of one workload. */
struct BackendResult
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t hazardCycles = 0;
    double bestSec = 0.0;

    double instrsPerSec() const
    {
        return bestSec <= 0.0 ? 0.0
                              : static_cast<double>(instrs) / bestSec;
    }
    double nsPerInstr() const
    {
        return instrs == 0
                   ? 0.0
                   : bestSec * 1e9 / static_cast<double>(instrs);
    }
};

struct WorkloadResult
{
    std::string name;
    BackendResult scalar;
    BackendResult pipelined;

    /** Modeled extra cycles of the pipelined backend, % of scalar. */
    double cycleInflationPct() const
    {
        return scalar.cycles == 0
                   ? 0.0
                   : 100.0 *
                         static_cast<double>(pipelined.cycles -
                                             scalar.cycles) /
                         static_cast<double>(scalar.cycles);
    }
};

BackendResult
timeBackend(const Workload &workload, const EnergyModel &energy,
            const HierarchyConfig &hierarchy, const TimingConfig &timing,
            int repeats)
{
    BackendResult r;
    for (int rep = 0; rep < repeats; ++rep) {
        Machine machine(workload.program, energy, hierarchy, timing);
        WallClock::time_point t0 = WallClock::now();
        machine.run(kRunLimit);
        double sec = secondsSince(t0);
        if (rep == 0 || sec < r.bestSec)
            r.bestSec = sec;
        r.instrs = machine.stats().dynInstrs;
        r.cycles = machine.stats().cycles;
        r.hazardCycles = machine.stats().hazardCycles();
    }
    return r;
}

/** `%.*f`: the BENCH files keep fixed decimals per field. */
std::string
fixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

void
appendBackendJson(amnesiac::json::Writer &w, const char *key,
                  const BackendResult &r)
{
    w.key(key).beginObject();
    w.key("instrs").integer(r.instrs);
    w.key("cycles").integer(r.cycles);
    w.key("hazardCycles").integer(r.hazardCycles);
    w.key("bestSec").raw(fixed(r.bestSec, 9));
    w.key("nsPerInstr").raw(fixed(r.nsPerInstr(), 4));
    w.key("instrsPerSec").raw(fixed(r.instrsPerSec(), 1));
    w.endObject();
}

}  // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int repeats = 3;
    std::string out_path = "BENCH_timing.json";
    PredictorKind predictor = PredictorKind::Bimodal;

    amnesiac::ArgReader reader(argc, argv,
                               "[--quick] [--repeats <n>] [--out <path>] "
                               "[--predictor <nottaken|bimodal|gshare>]");
    while (reader.next()) {
        const std::string &flag = reader.arg();
        if (flag == "--quick") {
            quick = true;
        } else if (flag == "--repeats") {
            // 0 still means one repeat: every phase is timed at least once.
            repeats = std::max(1, static_cast<int>(reader.number(
                                      std::numeric_limits<int>::max())));
        } else if (flag == "--out") {
            out_path = reader.value();
        } else if (flag == "--predictor") {
            const std::string name = reader.value();
            if (!amnesiac::parsePredictorKind(name, predictor))
                reader.fail("unknown predictor '" + name + "'");
        } else {
            reader.unknown();
        }
    }

    EnergyModel energy((EnergyConfig()));
    HierarchyConfig hierarchy;
    TimingConfig scalar_timing;
    TimingConfig pipelined_timing;
    pipelined_timing.backend = TimingBackend::Pipelined;
    pipelined_timing.predictor = predictor;

    std::vector<std::string> names =
        quick ? std::vector<std::string>{"mcf", "is", "bfs"}
              : amnesiac::registeredWorkloads();

    std::vector<WorkloadResult> results;
    for (const std::string &name : names) {
        std::fprintf(stderr, "  [perf] %s...\n", name.c_str());
        Workload workload = amnesiac::makeWorkload(name, 1);
        WorkloadResult r;
        r.name = name;
        r.scalar = timeBackend(workload, energy, hierarchy, scalar_timing,
                               repeats);
        r.pipelined = timeBackend(workload, energy, hierarchy,
                                  pipelined_timing, repeats);
        results.push_back(std::move(r));
    }

    // One top-level field per line as `"key": value`; each workload is
    // one compact object on a line of its own.
    std::string json;
    amnesiac::json::Writer w(json);
    auto field = [&](const char *name) -> amnesiac::json::Writer & {
        w.separate();
        json += "\n  ";
        w.key(name);
        json += ' ';
        return w;
    };
    w.beginObject();
    field("bench").string("perf_timing");
    field("version").integer(1);
    field("quick").boolean(quick);
    field("repeats").integer(static_cast<std::uint64_t>(repeats));
    field("predictor").string(amnesiac::predictorKindName(predictor));
    field("workloads").beginArray();
    BackendResult scalar_total, pipelined_total;
    for (const WorkloadResult &r : results) {
        w.separate();
        json += "\n    ";
        w.beginObject().key("name").string(r.name);
        appendBackendJson(w, "scalar", r.scalar);
        appendBackendJson(w, "pipelined", r.pipelined);
        w.key("cycleInflationPct").raw(fixed(r.cycleInflationPct(), 4));
        w.endObject();

        scalar_total.instrs += r.scalar.instrs;
        scalar_total.bestSec += r.scalar.bestSec;
        scalar_total.cycles += r.scalar.cycles;
        pipelined_total.instrs += r.pipelined.instrs;
        pipelined_total.bestSec += r.pipelined.bestSec;
        pipelined_total.cycles += r.pipelined.cycles;
        pipelined_total.hazardCycles += r.pipelined.hazardCycles;
    }
    json += "\n  ";
    w.endArray();
    const double inflation =
        scalar_total.cycles == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(pipelined_total.cycles -
                                      scalar_total.cycles) /
                  static_cast<double>(scalar_total.cycles);
    field("totals").beginObject();
    appendBackendJson(w, "scalar", scalar_total);
    appendBackendJson(w, "pipelined", pipelined_total);
    w.key("cycleInflationPct").raw(fixed(inflation, 4));
    w.endObject();
    json += '\n';
    w.endObject();
    json += '\n';

    std::ofstream out(out_path, std::ios::binary);
    out << json;
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
        return 1;
    }

    std::printf(
        "backend     instrs/sec   ns/instr  (aggregate best-of-%d)\n",
        repeats);
    std::printf("scalar     %11.0f   %8.3f\n",
                scalar_total.instrsPerSec(), scalar_total.nsPerInstr());
    std::printf("pipelined  %11.0f   %8.3f\n",
                pipelined_total.instrsPerSec(),
                pipelined_total.nsPerInstr());
    std::printf("modeled cycle inflation: +%.3f%% (hazard cycles %" PRIu64
                ")\n",
                inflation, pipelined_total.hazardCycles);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
