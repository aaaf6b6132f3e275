"""Self-test of the benchmark: every workload at a small size.

    python3 perfbench/selftest.py

Runs each workload untraced and traced with --small, and checks that every
run exits 0 with the result object on its last stdout line, that the result
is correct, and that it names exactly the metrics of BENCHMARK.json, each
with its unit: the end-to-end ones untraced, the per-layer ones traced.
It also checks that the traced counts repeat between two runs, that the
speed probe's readings scale times as documented, and that the benchmark,
copied without the sources, exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("scalars.ops", "scalars.normalize", "chords.lifts")


def bench(*args, cwd=ROOT):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--small", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )
    return res


def result(res):
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SelfTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        res = bench("--workload", workload, "--seed", "0", "--trace", str(trace))
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        out = result(res)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        table = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(out["metrics"]), {m["name"] for m in table})
        for m in table:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return out["metrics"]

    def test_every_workload_prints_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                metrics = self.check_run(workload, 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1)

    def test_traced_counts_repeat(self):
        first = self.check_run("verify-default", 1)
        second = self.check_run("verify-default", 1)
        for name in first:
            if name.endswith(".calls") or name in COUNTS:
                self.assertEqual(first[name]["value"], second[name]["value"], name)
        self.assertGreater(first["scalars.ops"]["value"], 0)

    def test_probe_scaling(self):
        # Probes every 0.1 s that read twice the full-speed time: the host ran
        # at half speed, so each stretch counts half, and the probes nothing.
        full = run.PROBE_FULL_SPEED_S
        ticks = [[0.1 * k, 2 * full] for k in range(1, 10)]
        lines = [{"i": 0, "t0": 0.05, "t1": 0.55, "out": {}},
                 {"setup": [0.0, 0.02], "start": 0.05, "end": 0.95, "ticks": ticks, "rss_mb": 1.0}]
        p = run.Pass(1, "\n".join(json.dumps(x) for x in lines).encode(), b"", 0, None, 1.0)
        setup, wall, ms = p.times(full)
        self.assertAlmostEqual(setup, 0.01)
        self.assertAlmostEqual(wall, (0.9 - 9 * 2 * full) / 2)
        self.assertAlmostEqual(ms[0], (0.5 - 5 * 2 * full) / 2 * 1e3)
        setup, wall, ms = p.times()        # unscaled
        self.assertAlmostEqual(wall, 0.9)
        self.assertAlmostEqual(ms[0], 500.0)

    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=str(ROOT)) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            res = bench("--workload", WORKLOADS[0], cwd=tmp)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
