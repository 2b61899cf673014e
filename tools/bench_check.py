#!/usr/bin/env python3
"""Perf-regression gate: compare fresh perf_interp / perf_timing output
against the committed baselines.

    bench_check.py --baseline BENCH_interp.json --fresh fresh_interp.json
    bench_check.py --baseline BENCH_timing.json --fresh fresh_timing.json \
        --throughput-ratio 3

The benchmark kind is read from the files' "bench" field (the two files
must agree). Two classes of check:

  * Deterministic fields (instruction counts, cycle counts, profiler
    arena and walk counters, pruned candidates, byte-identity, the
    timing backend's additive contract)
    are compared exactly: these are simulator outputs, independent of
    the host, so any drift is a functional regression, not noise.

  * Throughput fields (ns/instr per phase) are gated with a loose
    multiplicative band (--throughput-ratio, default 3x): baselines are
    recorded on one machine and CI runs on shared runners, so only a
    gross slowdown — the kind an accidentally quadratic pass or a hot
    span left enabled produces — is distinguishable from scheduling
    noise. Tighten the ratio when comparing runs from the same host.

perf_interp files must be format version 3 (no sharded-profiling
phase; a per-workload profiler walk counter). Workloads are matched by
name and compared over the intersection (the --quick benchmark set is
a subset of the full registry the baselines were recorded with);
disjoint sets are an error. Exit status: 0 clean, 1 regression, 2
usage/input error.
"""

import argparse
import json
import sys

failures = []
checked = 0


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


def check_exact(name, field, base, fresh):
    global checked
    checked += 1
    if base != fresh:
        fail(f"{name}: {field} changed: baseline {base!r} -> fresh {fresh!r}")


def check_throughput(name, field, base_ns, fresh_ns, ratio):
    global checked
    checked += 1
    if base_ns <= 0:
        return
    if fresh_ns > base_ns * ratio:
        fail(f"{name}: {field} {fresh_ns:.4f} ns/instr exceeds "
             f"{ratio:g}x baseline ({base_ns:.4f})")


def match_workloads(base, fresh):
    base_by_name = {w["name"]: w for w in base["workloads"]}
    fresh_by_name = {w["name"]: w for w in fresh["workloads"]}
    common = [n for n in fresh_by_name if n in base_by_name]
    if not common:
        print("error: no common workloads between baseline and fresh run",
              file=sys.stderr)
        sys.exit(2)
    skipped = sorted(set(base_by_name) ^ set(fresh_by_name))
    if skipped:
        print(f"note: compared {len(common)} common workloads; "
              f"only in one file: {', '.join(skipped)}")
    return [(n, base_by_name[n], fresh_by_name[n]) for n in common]


INTERP_VERSION = 3


def check_interp(base, fresh, ratio):
    for which, data in (("baseline", base), ("fresh", fresh)):
        if data.get("version") != INTERP_VERSION:
            print(f"error: {which} perf_interp file is version "
                  f"{data.get('version')!r}, expected {INTERP_VERSION} "
                  "(regenerate it with bench/perf_interp)", file=sys.stderr)
            sys.exit(2)
    for name, b, f in match_workloads(base, fresh):
        for phase in ("classic", "amnesic", "profile"):
            check_exact(name, f"{phase}.instrs",
                        b[phase]["instrs"], f[phase]["instrs"])
            check_throughput(name, f"{phase}.nsPerInstr",
                             b[phase]["nsPerInstr"], f[phase]["nsPerInstr"],
                             ratio)
        check_exact(name, "productions", b["productions"], f["productions"])
        check_exact(name, "arenaNodes", b["arenaNodes"], f["arenaNodes"])
        check_exact(name, "walkNodes", b["walkNodes"], f["walkNodes"])
        # Added within version 3: compared once the baseline has it.
        if "operandProbes" in b:
            check_exact(name, "operandProbes", b["operandProbes"],
                        f.get("operandProbes"))
        check_exact(name, "compile.byteIdentical", True,
                    f["compile"]["byteIdentical"])
        check_exact(name, "compile.prunedCandidates",
                    b["compile"]["prunedCandidates"],
                    f["compile"]["prunedCandidates"])
        # A configDigest change means the default configuration drifted.
        # That is sometimes intentional (a new config field folds into
        # the digest), so it warns rather than fails — but it must
        # never pass silently, because it also regenerates every cache
        # key.
        bd = b["manifest"]["configDigest"]
        fd = f["manifest"]["configDigest"]
        if bd != fd:
            print(f"warn: {name}: configDigest drifted {bd} -> {fd} "
                  "(intentional config change? refresh the baseline)")


def check_timing(base, fresh, ratio):
    for name, b, f in match_workloads(base, fresh):
        for backend in ("scalar", "pipelined"):
            check_exact(name, f"{backend}.instrs",
                        b[backend]["instrs"], f[backend]["instrs"])
            check_exact(name, f"{backend}.cycles",
                        b[backend]["cycles"], f[backend]["cycles"])
            check_exact(name, f"{backend}.hazardCycles",
                        b[backend]["hazardCycles"],
                        f[backend]["hazardCycles"])
            check_throughput(name, f"{backend}.nsPerInstr",
                             b[backend]["nsPerInstr"],
                             f[backend]["nsPerInstr"], ratio)
        check_exact(name, "additive cycle contract",
                    f["scalar"]["cycles"] + f["pipelined"]["hazardCycles"],
                    f["pipelined"]["cycles"])


def main():
    parser = argparse.ArgumentParser(
        description="compare a fresh benchmark run against its baseline")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_interp.json / BENCH_timing.json")
    parser.add_argument("--fresh", required=True,
                        help="freshly produced benchmark JSON")
    parser.add_argument("--throughput-ratio", type=float, default=3.0,
                        help="max allowed fresh/baseline ns-per-instr ratio "
                             "(default 3; deterministic fields are always "
                             "compared exactly)")
    args = parser.parse_args()

    try:
        with open(args.baseline) as fh:
            base = json.load(fh)
        with open(args.fresh) as fh:
            fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if base.get("bench") != fresh.get("bench"):
        print(f"error: benchmark kinds differ: {base.get('bench')!r} vs "
              f"{fresh.get('bench')!r}", file=sys.stderr)
        return 2
    kind = base.get("bench")
    if kind == "perf_interp":
        check_interp(base, fresh, args.throughput_ratio)
    elif kind == "perf_timing":
        check_timing(base, fresh, args.throughput_ratio)
    else:
        print(f"error: unknown bench kind {kind!r}", file=sys.stderr)
        return 2

    if failures:
        print(f"bench_check: {len(failures)} regression(s) in {checked} "
              f"checks against {args.baseline}")
        return 1
    print(f"bench_check: OK ({checked} checks, {kind}, "
          f"ratio {args.throughput_ratio:g}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
