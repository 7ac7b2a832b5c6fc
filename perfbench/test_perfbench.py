#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the runner, so the first run takes a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Counts that depend only on the seed, never on timing.
REPEATING = ("core.stencils_found", "core.stencils_merged", "codegen.builds",
             "codegen.emitted_nests", "codegen.fallback_nests",
             "codegen.fused_nests", "dmp.halo_msgs_per_run",
             "dmp.halo_msgs_per_run_4ranks", "dmp.halo_msgs_per_run_8ranks")


def bench(*args):
    r = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                       stdout=subprocess.PIPE, check=True, timeout=900)
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def stream(workload, seed):
    r = subprocess.run([run.EXE, "stream", "--workload", workload, "--seed",
                        str(seed), "--seconds", "12"],
                       stdout=subprocess.PIPE, check=True)
    return r.stdout.decode()


class Spec(unittest.TestCase):
    def test_benchmark_json_reparses_with_units(self):
        with open("BENCHMARK.json") as f:
            s = json.load(f)
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertTrue(m["unit"], m["name"])
            self.assertIn(m["better"], ("lower", "higher"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))


class Compare(unittest.TestCase):
    def test_better_needs_ten_pairs(self):
        xs, ys = [10.0, 11.0, 12.0], [5.0, 5.5, 6.0]
        self.assertFalse(run.verdict(xs, ys, True, 0.1, False)
                         .startswith("BETTER"))
        xs, ys = [10.0 + i for i in range(10)], [5.0 + i / 10 for i in range(10)]
        self.assertTrue(run.verdict(xs, ys, True, 0.1, False)
                        .startswith("BETTER"))

    def test_better_refused_when_more_ops_failed(self):
        xs, ys = [10.0 + i for i in range(10)], [5.0 + i / 10 for i in range(10)]
        self.assertTrue(run.verdict(xs, ys, True, 0.1, True)
                        .startswith("not better"))

    def test_pairs_by_seed_and_refuses_unmatched_sets(self):
        import tempfile

        def write(d, seed, value):
            with open(os.path.join(d, "exec-steady-%d.json" % seed), "w") as f:
                json.dump({"workload": "exec-steady", "trace": 0, "seed": seed,
                           "failed": 0,
                           "metrics": {"latency_p50_ms": {"value": value}}}, f)

        with tempfile.TemporaryDirectory() as pa, \
                tempfile.TemporaryDirectory() as ch:
            write(pa, 1, 1.0)
            write(pa, 2, 2.0)
            write(ch, 2, 2.0)
            write(ch, 3, 3.0)
            self.assertEqual(sorted(run.load_results(pa)[("exec-steady", 0)]),
                             [1, 2])
            with self.assertRaises(SystemExit):
                run.compare(pa, ch)


class Streams(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(run.tool_env())

    def test_same_seed_same_stream(self):
        for w in run.WORKLOADS:
            a, b, c = stream(w, 7), stream(w, 7), stream(w, 8)
            self.assertTrue(a)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


class Runs(unittest.TestCase):
    def check_line(self, line, group):
        with open("BENCHMARK.json") as f:
            declared = {m["name"]: m["unit"] for m in json.load(f)[group]}
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(set(line["metrics"]), set(declared))
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], declared[name])

    def test_counts_repeat_and_lines_match_the_spec(self):
        for w in ("cold-start", "exec-steady", "exec-parallel"):
            a = bench("--workload", w, "--seed", "5", "--seconds", "5",
                      "--trace", "1")
            b = bench("--workload", w, "--seed", "5", "--seconds", "5",
                      "--trace", "1")
            self.check_line(a, "per_layer")
            for name in REPEATING:
                self.assertEqual(a["metrics"][name]["value"],
                                 b["metrics"][name]["value"], (w, name))
        self.check_line(bench("--workload", "serve-mix", "--seed", "5",
                              "--seconds", "4"), "end_to_end")


if __name__ == "__main__":
    unittest.main()
