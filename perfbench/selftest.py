"""The benchmark's own tests, at tiny sizes.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def declared() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


class MetricsTest(unittest.TestCase):
    def test_declared_metrics_match_the_runner(self):
        end_to_end, per_layer = declared()
        self.assertEqual(end_to_end, run.END_TO_END)
        self.assertEqual(per_layer, run.PER_LAYER)

    def test_tiny_runs_print_every_metric_with_its_unit(self):
        end_to_end, per_layer = declared()
        for name in workloads.WORKLOADS:
            for trace, units in ((0, end_to_end), (1, per_layer)):
                with self.subTest(workload=name, trace=trace):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = run.main(
                            ["--workload", name, "--seed", "5", "--seconds", "0",
                             "--trace", str(trace)],
                            specs=workloads.TINY_SPECS,
                        )
                    self.assertEqual(rc, 0)
                    result = json.loads(out.getvalue().strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units
                    )


class CheckTest(unittest.TestCase):
    def corrupted(self, key: str, field: str) -> dict:
        expected = workloads.load_expected()
        expected[key] = dict(expected[key], **{field: expected[key][field] + 1})
        return expected

    def failed_ops(self, name: str, expected: dict) -> list[str]:
        spec = workloads.TINY_SPECS[name]
        _, ops = workloads.WORKLOADS[name](spec, 5, workloads.Clock(), expected)
        return [op[0] for op in ops if not op[1]]

    def test_corrupted_fixed_seed_count_fails_the_op(self):
        s = workloads.TINY_SPECS["lfr_decode"]
        key = workloads.memory_key("frame", s["d"], s["rounds"], s["noise"], s["check_shots"])
        self.assertEqual(self.failed_ops("lfr_decode", workloads.load_expected()), [])
        self.assertEqual(
            self.failed_ops("lfr_decode", self.corrupted(key, "failures")), ["fixed-seed counts"]
        )

    def test_corrupted_beam_passes_fails_the_op(self):
        d = workloads.TINY_SPECS["compile_surgery"]["distances"][0]
        key = workloads.compile_key(d, True)
        self.assertEqual(
            self.failed_ops("compile_surgery", self.corrupted(key, "beam_passes")),
            [f"resources d={d} simd=1"],
        )


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
