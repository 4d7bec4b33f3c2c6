"""Smoke test of the benchmark: every workload on a tiny grid, in both modes.

    python3 -m unittest perfbench/test_smoke.py

Run from the repository root. Checks that each run is correct and prints
every metric named in BENCHMARK.json with its unit, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, metrics in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", trace, "--scale", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in metrics})

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
