#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m unittest paperbench/test_paperbench.py

Builds and runs the C++ digest self-test, checks run.py's output checks,
and runs one real traced run: its traced pass must reproduce its
untraced one, and every metric it prints must be declared in
BENCHMARK.json with the same unit.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


class SelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        run.build()
        subprocess.run(["cmake", "--build", str(run.BUILD_DIR), "-j",
                        str(run.jobs()), "--target", "paperbench_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        proc = subprocess.run([str(run.BUILD_DIR / "paperbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


def fake_pass(cells):
    return {"cells": [{"id": i, "digest": d, "ok": True} for i, d in cells.items()],
            "cache_hits": 0, "cache_misses": 2 * run.MIMICS, "layer": {}}


class OutputCheck(unittest.TestCase):
    CELLS = {f"m{m}/p{p}": f"{m * 6 + p:016x}"
             for m in range(run.MIMICS) for p in range(6)}

    def test_clean_pass(self):
        failed, reasons = run.check_unit(
            "paper-cold", fake_pass(self.CELLS), self.CELLS, None, self.CELLS)
        self.assertEqual((failed, reasons), (set(), []))

    def test_one_altered_cell_fails(self):
        altered = dict(self.CELLS, **{"m3/p2": "0" * 16})
        for where in ("reference", "first"):
            reference = self.CELLS if where == "reference" else None
            first = self.CELLS if where == "first" else None
            failed, reasons = run.check_unit(
                "paper-cold", fake_pass(altered), reference, None, first)
            self.assertEqual(failed, {"m3/p2"}, where)
            self.assertTrue(reasons)

    def test_warm_pass_must_not_miss(self):
        result = fake_pass(self.CELLS)
        result.update(cache_hits=2 * run.MIMICS - 1, cache_misses=1)
        _, reasons = run.check_unit("paper-warm", result, None, self.CELLS, None)
        self.assertTrue(any("cache misses" in r for r in reasons))

    def test_recorded_references_cover_default_and_held_out_seed(self):
        for family in ("paper", "breakeven"):
            for seed in (1, 7919):
                self.assertTrue(
                    (run.REFERENCE_DIR / f"{family}-seed{seed}.json").exists())


class TracedRun(unittest.TestCase):
    def test_declared_sets_match(self):
        self.assertEqual(declared("end_to_end"), run.END_TO_END)
        self.assertEqual(declared("per_layer"), run.PER_LAYER)

    def test_traced_run_checks_clean_and_prints_declared_names(self):
        """A full --trace 1 run of paper-cold: run.py checks the traced
        pass against the untraced one (and the recorded reference), and
        each name it prints, traced or not, is declared with its unit."""
        run.build()
        run.WORK_DIR.mkdir(parents=True, exist_ok=True)
        units, attempted, failed, reasons, _ = run.measure(
            "paper-cold", 2, 0, 1)
        self.assertEqual((failed, reasons), (0, []))
        self.assertEqual(attempted, 2 * run.CELLS["paper-cold"])
        self.assertEqual([unit["traced"] for unit in units], [False, True])
        self.assertEqual(units[0]["digest"], units[1]["digest"])
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            printed = run.metrics_of(units, trace)
            names = declared(section)
            for name, metric in printed.items():
                self.assertEqual(names.get(name), metric["unit"], name)
            self.assertEqual(set(printed), set(names))
        layer = units[1]["layer"]
        self.assertEqual(layer["report.cache_misses"], 2 * run.MIMICS)
        self.assertGreater(layer["core.compile_oracle_s"], 0)
        self.assertGreater(layer["profile.instrs"], 0)


if __name__ == "__main__":
    unittest.main()
