#!/usr/bin/env python3
"""The benchmark's own test, on the short mode of every workload.

    python3 perfbench/test_perfbench.py

Checks that run.py emits exactly the metric names and units
BENCHMARK.json declares, with every correctness check passing. Checks
that two runs with one seed give identical counters and fingerprints,
while another seed changes them. Checks that nothing is written
outside .bench_build/.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def deterministic_view(workload, seed):
    """One short pass of the measured binary, without host times."""
    rc, records = run.run_binary(run.build("release"), [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--passes", "1", "--short"])
    assert rc == 0, "perfbench exited %d" % rc
    p = run.kind(records, "pass")[0]
    if workload == "codec":
        return {"fingerprint": p["fingerprint"],
                "gf": p["gf_muladd_multi_bytes"]}
    return [{k: v for k, v in c.items() if k != "segments"}
            for c in p["cells"]]


class Contract(unittest.TestCase):
    def check_emits(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                rc, out = bench(w["name"], trace)
                self.assertEqual(rc, 0)
                self.assertEqual(set(out), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"]
                                       for m in declared})

    def test_end_to_end_metrics(self):
        self.check_emits(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_emits(1, SPEC["per_layer"])


class Determinism(unittest.TestCase):
    def test_seed_repeats_and_reaches_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a = deterministic_view(w["name"], 11)
                self.assertEqual(a, deterministic_view(w["name"], 11))
                self.assertNotEqual(a, deterministic_view(w["name"], 12))


class Footprint(unittest.TestCase):
    def test_writes_only_build_dir(self):
        def listing():
            return {n: os.path.getmtime(os.path.join(ROOT, n))
                    for n in os.listdir(ROOT) if n != ".bench_build"}
        before = listing()
        bench("codec", 0)
        self.assertEqual(before, listing())


if __name__ == "__main__":
    unittest.main()
