#!/usr/bin/env python3
"""Paper-regeneration benchmark for the AMNESIAC reproduction.

    python3 paperbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 paperbench/run.py --record-reference --seed <n>

Run from the root of a checkout. The first call builds the library and
the pass binary (Release) into .bench_build/paperbench. Each pass then
runs in a fresh process with min(4, hardware threads) workers:

  paper-cold  runMany over the 11 paper mimics x 5 policies + classic,
              artifact cache in a fresh, empty directory
  paper-warm  the same call, cache filled during set-up by this build
  breakeven   breakEvenScale(C-Oracle) per mimic, over the same threads

With --trace 0 the run repeats set-up + pass units for --seconds (at
least three) and reports the medians of the end-to-end metrics. With
--trace 1 it runs one untraced and one traced unit and reports the
per-layer metrics of the traced one. Every pass is checked: its output
cells against the recorded reference for the seed (if one exists in
paperbench/reference), against the run's first unit, and, for
paper-warm, against the cold fill of its own cache. The last stdout
line is the JSON result; a failed cell makes the exit code nonzero.
See paperbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "paperbench"
WORK_DIR = ROOT / ".bench_build" / "paperbench-work"
REFERENCE_DIR = BENCH_DIR / "reference"
BINARY = BUILD_DIR / "paperbench"

WORKLOADS = ("paper-cold", "paper-warm", "breakeven")
MIMICS = 11
CELLS = {"paper-cold": MIMICS * 6, "paper-warm": MIMICS * 6, "breakeven": MIMICS}
MIN_UNITS = 3
RUN_BUDGET_S = 150.0  # keeps a run well inside the 180 s limit
PASS_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "workloads.build_s": "s",
    "report.prepare_max_s": "s",
    "report.classic_s": "s",
    "report.simulate_s": "s",
    "core.compile_s": "s",
    "profile.pipeline_s": "s",
    "core.dryrun_s": "s",
    "core.select_s": "s",
    "core.rewrite_s": "s",
    "analysis.s": "s",
    "report.cache_hits": "count",
    "report.cache_misses": "count",
    "util.pool_busy_s": "s",
    "util.pool_queue_wait_s": "s",
    "util.pool_utilization": "ratio",
    "sim.classic_instrs": "count",
    "sim.classic_ns_per_instr": "ns",
    "core.amnesic_instrs": "count",
    "core.amnesic_ns_per_instr": "ns",
    "profile.instrs": "count",
    "profile.ns_per_instr": "ns",
    "profile.productions": "count",
    "profile.arena_nodes": "count",
    "profile.sites": "count",
    "analysis.prune_s": "s",
    "analysis.pruned_candidates": "count",
    "analysis.gate_s": "s",
    "core.compile_prob_s": "s",
    "core.compile_oracle_s": "s",
    "report.breakeven_s": "s",
    "report.breakeven_max_s": "s",
    "report.cache_load_s": "s",
    "report.cache_store_s": "s",
    "isa.amnb_bytes": "bytes",
    "mem.l1_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio",
    "core.rcmp_fire_ratio": "ratio",
    "proc.minor_faults": "count",
    "proc.sys_s": "s",
    "trace.overhead_pct": "%",
}


class PassError(Exception):
    """A pass process failed or printed no result."""


def log(message):
    print(f"[paperbench] {message}", file=sys.stderr, flush=True)


def jobs():
    """Parallel build jobs (the pass binary picks its own threads)."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then bring the Release build up to date."""
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(jobs()),
         "--target", "paperbench"],
        check=True, stdout=sys.stderr)


def run_pass(workload, seed, cache_dir=None, traced=False):
    """One pass in a fresh process; returns its parsed JSON."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if cache_dir:
        cmd += ["--cache-dir", str(cache_dir)]
    if traced:
        probe_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK_DIR))
        spans = WORK_DIR / f"spans-{workload}-seed{seed}.json"
        cmd += ["--traced", "--probe-dir", str(probe_dir),
                "--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise PassError(f"{workload} pass timed out") from error
    finally:
        if traced:
            shutil.rmtree(probe_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}")
    result = json.loads(lines[-1])
    if traced:
        log(f"spans written to {spans}")
    return result


def run_unit(workload, seed, traced=False):
    """Set-up plus one timed pass. Returns (pass result, set-up seconds,
    cells the pass must match besides the reference)."""
    if workload == "breakeven":
        result = run_pass(workload, seed, traced=traced)
        return result, result["setup_s"], None
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
    try:
        if workload == "paper-cold":
            result = run_pass(workload, seed, cache, traced)
            return result, result["setup_s"], None
        # paper-warm: this build fills a fresh cache, then the timed
        # pass reads it. The fill is a cold pass, so its cells are the
        # cold digests the warm pass must reproduce.
        fill = run_pass("paper-cold", seed, cache)
        result = run_pass(workload, seed, cache, traced)
        setup = fill["setup_s"] + fill["wall_s"] + result["setup_s"]
        return result, setup, cell_map(fill["cells"])
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def load_reference(workload, seed):
    family = "breakeven" if workload == "breakeven" else "paper"
    path = REFERENCE_DIR / f"{family}-seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["cells"]


def check_unit(workload, result, reference, expected, first):
    """Failed cells of one pass (set of ids) and the reasons."""
    failed = set()
    reasons = []
    cells = {cell["id"]: cell for cell in result["cells"]}
    if len(cells) != CELLS[workload]:
        reasons.append(f"{len(cells)} cells, expected {CELLS[workload]}")
    for cell in result["cells"]:
        if not cell["ok"]:
            failed.add(cell["id"])
            reasons.append(f"{cell['id']}: shadow-check mismatch")
    for name, want in (("reference", reference), ("cold fill", expected),
                       ("first unit", first)):
        if want is None:
            continue
        for cell_id, digest in want.items():
            got = cells.get(cell_id)
            if got is None or got["digest"] != digest:
                failed.add(cell_id)
                reasons.append(f"{cell_id}: differs from {name}")
    if workload == "paper-cold" and result["cache_hits"] != 0:
        reasons.append(f"cold pass saw {result['cache_hits']} cache hits")
    if workload == "paper-warm" and (result["cache_misses"] != 0 or
                                     result["cache_hits"] != 2 * MIMICS):
        reasons.append(f"warm pass saw {result['cache_hits']} cache hits and "
                       f"{result['cache_misses']} cache misses")
    if result["layer"].get("probe.errors", 0) != 0:
        reasons.append("a layer probe saw a lint error or a bad cache load")
    return failed, reasons


def cell_map(cells):
    return {cell["id"]: cell["digest"] for cell in cells}


def fingerprint(result):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            **(result or {}).get("fingerprint", {})}


def measure(workload, seed, seconds, trace):
    reference = load_reference(workload, seed)
    if reference is None:
        log(f"no recorded reference for seed {seed}; checking the passes "
            f"against each other only")
    units = []
    attempted = failed = 0
    reasons = []
    first = None
    last = None
    start = time.monotonic()
    while True:
        # A traced run is one untraced unit, then one traced unit.
        traced = bool(trace) and len(units) == 1
        unit_start = time.monotonic()
        try:
            result, setup, expected = run_unit(workload, seed, traced)
        except PassError as error:
            attempted += CELLS[workload]
            failed += CELLS[workload]
            reasons.append(str(error))
            break
        unit_failed, unit_reasons = check_unit(
            workload, result, reference, expected, first)
        attempted += len(result["cells"])
        failed += len(unit_failed)
        reasons += unit_reasons
        if first is None:
            first = cell_map(result["cells"])
        last = result
        units.append({"traced": traced, "setup_s": setup, **{
            key: result[key] for key in
            ("wall_s", "cpu_s", "peak_rss_mb", "digest", "layer")}})
        now = time.monotonic()
        if trace:
            if len(units) == 2:
                break
        elif (len(units) >= MIN_UNITS and now - start >= seconds) or (
                # Another unit as long as this one would overrun.
                (now - start) + (now - unit_start) > RUN_BUDGET_S):
            break
    return units, attempted, failed, reasons, fingerprint(last)


def metrics_of(units, trace):
    """The printed metrics: per-layer values of the traced unit (with
    the tracing overhead against the untraced one), or the medians of
    the end-to-end metrics over every unit."""
    if len(units) < (2 if trace else 1):
        return {}
    if trace:
        plain, traced = units[0], units[-1]
        layer = dict(traced["layer"])
        layer["trace.overhead_pct"] = (
            (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"] * 100.0)
        return {name: {"value": layer[name], "unit": unit}
                for name, unit in PER_LAYER.items()}
    return {name: {"value": statistics.median(unit[name] for unit in units),
                   "unit": unit_name}
            for name, unit_name in END_TO_END.items()}


def report(workload, seed, seconds, trace):
    units, attempted, failed, reasons, host = measure(
        workload, seed, seconds, trace)
    metrics = metrics_of(units, trace)
    correct = failed == 0 and not reasons and bool(units)
    for reason in reasons:
        log(f"CHECK FAILED: {reason}")
    print(json.dumps({"workload": workload, "seed": seed, "host": host,
                      "units": [{k: v for k, v in unit.items() if k != "layer"}
                                for unit in units]}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_reference(seed):
    REFERENCE_DIR.mkdir(exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
    try:
        paper = run_pass("paper-cold", seed, cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    breakeven = run_pass("breakeven", seed)
    for family, result in (("paper", paper), ("breakeven", breakeven)):
        if not all(cell["ok"] for cell in result["cells"]):
            raise PassError(f"{family} pass saw a shadow-check mismatch")
        path = REFERENCE_DIR / f"{family}-seed{seed}.json"
        path.write_text(json.dumps(
            {"seed": seed, "digest": result["digest"],
             "fingerprint": fingerprint(result),
             "cells": cell_map(result["cells"])}, indent=1) + "\n")
        log(f"wrote {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the output digests of --seed")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    if args.record_reference:
        record_reference(args.seed)
        return 0
    return report(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
