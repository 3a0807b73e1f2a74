#!/usr/bin/env python3
"""Self-tests of the benchmark runner and its tracer.

    python3 perfbench/selftest.py

They run a few cheap CLI commands (a few seconds in all) and check the tracer's
counts against what the commands print, the self-time accounting, and that a
wrong output is counted as a failure instead of stopping the run.
"""

import hashlib
import json
import sys
import time
import unittest

import run
from tracer import Tracer


def traced(cmd):
    path = run.WORK / "selftest_trace.json"
    path.unlink(missing_ok=True)
    sample = run.run_command(cmd, run.load_expected(), time.monotonic() + 120, trace_path=path)
    sample["trace"] = json.loads(path.read_text())
    sample["stdout"] = json.loads((run.WORK / "stdout").read_text())
    return sample


def setUpModule():
    run.build()


class TraceCounts(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.t9 = traced("table T9")
        cls.sweep = traced("sweep --q 7 --xmax 2000")

    def test_table_t9_builds_no_stats_and_calls_no_stieltjes(self):
        self.assertTrue(self.t9["ok"], self.t9["why"])
        metrics, absent = run.per_layer([], [self.t9])
        self.assertEqual(absent, [])
        self.assertEqual(metrics["primes.stats_builds"][0], 0)
        self.assertEqual(metrics["lvalues.stieltjes_calls"][0], 0)

    def test_sweep_counts_match_what_the_command_prints(self):
        self.assertTrue(self.sweep["ok"], self.sweep["why"])
        metrics, absent = run.per_layer([], [self.sweep])
        self.assertEqual(absent, [])
        checked = {row["name"]: row["value"] for row in self.sweep["stdout"]}["checked"]
        self.assertEqual(checked, 45)
        self.assertEqual(metrics["criterion.points_evaluated"][0], checked)
        self.assertEqual(metrics["primes.stats_builds"][0], 1)
        self.assertEqual(metrics["primes.primes_logged"][0], 24_887)
        self.assertEqual(metrics["constants.mertens_builds"][0], 1)
        # kernels go to the innermost open layer: Hurwitz zeta rows belong to
        # constants, the digamma row of L(1, chi) to lvalues called from it
        self.assertGreater(metrics["constants.zeta_calls"][0], 0)
        self.assertEqual(metrics["lvalues.zeta_calls"][0], 0)
        self.assertEqual(metrics["lvalues.digamma_calls"][0], 6)

    def test_self_times_and_remainder_add_up_to_the_traced_wall(self):
        for sample in (self.t9, self.sweep):
            t = sample["trace"]
            self.assertTrue(all(v >= 0 for v in t["self_s"].values()), t["self_s"])
            self.assertGreaterEqual(t["unwrapped_s"], 0)
            total = sum(t["self_s"].values()) + t["unwrapped_s"]
            self.assertAlmostEqual(total, t["wall_s"], delta=1e-9 * t["wall_s"] + 1e-9)
            self.assertLessEqual(t["wall_s"], sample["wall"])

    def test_missing_function_is_reported_absent(self):
        t = json.loads(json.dumps(self.sweep["trace"]))
        t["found"].remove("primes.ProgressionStats.__init__")
        t["absent"].append("primes.ProgressionStats.__init__")
        metrics, absent = run.per_layer([], [dict(self.sweep, trace=t)])
        self.assertIn("primes.stats_builds", absent)
        self.assertIn("primes.read_frac", absent)
        self.assertNotIn("primes.stats_builds", metrics)
        self.assertIn("lvalues.self_s", metrics)


class TracerInstall(unittest.TestCase):
    def test_rebinds_from_imports_reads_caches_and_skips_missing_names(self):
        sys.path.insert(0, str(run.SRC))
        import totprog.cli as cli
        import totprog.constants as constants
        import totprog.criterion as criterion

        original = constants.F_q, constants.mertens_C
        tracer = Tracer()
        tracer.install(
            methods={"primes": ("ProgressionStats.__init__", "ProgressionStats.no_such_method")},
            kernels=("zeta", "no_such_kernel"),
        )
        try:
            self.assertIsNot(constants.F_q, original[0])
            self.assertIs(cli.F_q, constants.F_q)
            self.assertIs(criterion.F_q, constants.F_q)
            self.assertIs(cli.mertens_C, constants.mertens_C)
            self.assertIs(criterion.mertens_C, constants.mertens_C)
            self.assertIn("primes.ProgressionStats.no_such_method", tracer.absent)
            self.assertIn("mpmath.no_such_kernel", tracer.absent)
            self.assertIn("characters.build_group", tracer.report()["cache_misses"])
        finally:
            tracer.uninstall()
        self.assertEqual((constants.F_q, constants.mertens_C), original)
        self.assertIs(cli.F_q, original[0])


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_digest_is_a_failure_and_the_run_goes_on(self):
        expected = {
            "table T9": dict(run.load_expected()["table T9"], sha256="0" * 64),
            # T6 has no bundled data: exit 1, nothing on stdout
            "table T6": {"exit": 1, "sha256": hashlib.sha256(b"").hexdigest()},
        }
        cmds = ("table T9", "table T6")
        samples, passes = run.measure(cmds, expected, seed=0, seconds=0, deadline=time.monotonic() + 60)
        self.assertEqual(passes, 1)
        self.assertEqual({s["cmd"]: s["ok"] for s in samples}, {"table T9": False, "table T6": True})
        metrics = run.end_to_end(cmds, samples, setup=[0.1])
        self.assertEqual(metrics["ok_frac"][0], 0.5)


if __name__ == "__main__":
    unittest.main()
