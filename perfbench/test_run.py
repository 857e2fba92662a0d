"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run them from the root of a source checkout. The tests that need the
built program skip themselves until `python3 perfbench/run.py ...` (or
`dune build`) has built it.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILT = os.path.exists(run.P2PSIM) and os.path.exists(run.TRACE)


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout, out.stderr


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], run.WORKLOADS[w["name"]].why)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         {n: v[:2] for n, v in run.PER_LAYER.items()})
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_holdout_seed_differs(self):
        self.assertNotEqual(run.DEFAULT_SEED, run.HOLDOUT_SEED)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS.values():
            self.assertEqual(w.inputs(5), w.inputs(5), w.name)
            self.assertEqual(w.main(w.inputs(5), 3), w.main(w.inputs(5), 3), w.name)

    def test_other_seed_other_inputs(self):
        for name in ("syndrome", "flash_crowd", "coded_campaign"):
            w = run.WORKLOADS[name]
            self.assertNotEqual(w.inputs(run.DEFAULT_SEED), w.inputs(run.HOLDOUT_SEED), name)


SYNDROME_OUT = """\
  events          : 3900000
  transfers       : 6500
empirical verdict: appears-unstable (growth 1.742/t)
"""
SYNDROME_REPORT = "  one-club verdict             : appears-unstable\n"


class Checks(unittest.TestCase):
    def test_good_output_passes(self):
        w = run.WORKLOADS["syndrome"]
        self.assertEqual(w.check(SYNDROME_OUT, SYNDROME_REPORT, {}), [])

    def test_each_broken_output_fails(self):
        w = run.WORKLOADS["syndrome"]
        broken = [
            (SYNDROME_OUT.replace("appears-unstable", "appears-stable"), SYNDROME_REPORT),
            (SYNDROME_OUT, SYNDROME_REPORT.replace("appears-unstable", "inconclusive")),
            ("WARNING: max_events budget exhausted before the horizon\n" + SYNDROME_OUT,
             SYNDROME_REPORT),
        ]
        for out, report in broken:
            self.assertNotEqual(w.check(out, report, {}), [])

    def test_fluid_mass_balance(self):
        w = run.WORKLOADS["fluid_mega"]
        good = "  arrival mass    : 1e+04\n  departure mass  : 1.009e+06\n  final N         : 1100\n"
        self.assertEqual(w.check(good, "", {}), [])
        self.assertNotEqual(w.check(good.replace("1100", "5100"), "", {}), [])

    def test_half_ulp(self):
        self.assertEqual(run.half_ulp("1100"), 0.0)
        self.assertAlmostEqual(run.half_ulp("1.009e+06"), 500.0)
        self.assertAlmostEqual(run.half_ulp("0.001001"), 5e-7)


@unittest.skipUnless(BUILT, "program not built")
class EndToEnd(unittest.TestCase):
    def test_failing_check_raises_failed_frac(self):
        w = run.WORKLOADS["coded_campaign"]
        os.makedirs(run.WORK, exist_ok=True)
        calls = []

        def first_fails(*args):
            calls.append(1)
            return ["deliberately failing check"] if len(calls) == 1 else w.check(*args)

        _, attempted, failed, _ = run.untraced(w, run.DEFAULT_SEED, 0, check=first_fails)
        self.assertEqual((failed, attempted), (1, run.MIN_REPS))
        _, _, failed, _ = run.untraced(w, run.DEFAULT_SEED, 0)
        self.assertEqual(failed, 0)

    def test_same_seed_same_counts(self):
        w = run.WORKLOADS["flash_crowd"]
        os.makedirs(run.WORK, exist_ok=True)
        counts = [w.counts(run.p2psim(w.main(w.inputs(run.DEFAULT_SEED), 0), "main")[2])
                  for _ in range(2)]
        self.assertEqual(counts[0], counts[1])

    def test_every_metric_prints_with_name_and_unit(self):
        for trace, table in (("0", run.END_TO_END),
                             ("1", {n: v[0] for n, v in run.PER_LAYER.items()})):
            code, out, err = bench("--workload", "coded_campaign", "--seconds", "1",
                                   "--trace", trace)
            self.assertEqual(code, 0, err)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, table)
            for name, unit in table.items():
                self.assertTrue(any(l.split()[:1] == [name] and l.split()[2] == unit
                                    for l in lines[:-1]), name)
            self.assertTrue(any(l.startswith("failed_frac ") for l in lines[:-1]))


if __name__ == "__main__":
    unittest.main()
