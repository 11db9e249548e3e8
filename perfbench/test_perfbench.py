"""Tests of the benchmark itself (not of whalg).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pace  # noqa: E402
import tracer  # noqa: E402
from workloads import Round, Settings, Mutants, perturb  # noqa: E402


class SelfCheck(unittest.TestCase):
    def test_clean_runs_pass_and_planted_faults_count(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--self-check"],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("qt-heavy planted: 1 of", proc.stdout)
        self.assertIn("mutants planted: 1 of", proc.stdout)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerRobustness(unittest.TestCase):
    def test_missing_function_is_reported_not_fatal(self):
        saved = list(tracer.WRAPPED)
        tracer.WRAPPED.append(("whalg.wha", "no_such_suite", "wha.no_such_suite_s", None))
        try:
            with tempfile.TemporaryDirectory() as tmp:
                tr = tracer.Tracer(tmp)
                with tr:
                    rnd = Round(tr)
                    Mutants(0, Settings(tmp, small=True)).run(rnd, 0)
        finally:
            tracer.WRAPPED[:] = saved
        self.assertIn("wha.no_such_suite_s", tr.missing)
        self.assertEqual(rnd.wrong, [])
        values = tr.layer_values()
        self.assertGreater(values["exactmath.mul.calls"], 0)
        self.assertGreater(values["wha.weak_bialgebra_s"], 0)

    def test_wrappers_are_removed_on_exit(self):
        from whalg import cli, exactmath, wha

        before = (wha.verify_antipode, cli.verify_antipode, exactmath.Cyclotomic.__mul__)
        with tempfile.TemporaryDirectory() as tmp:
            with tracer.Tracer(tmp):
                self.assertIsNot(cli.verify_antipode, before[1])
        self.assertEqual((wha.verify_antipode, cli.verify_antipode, exactmath.Cyclotomic.__mul__), before)

    def test_self_time_subtracts_children_but_not_overlays(self):
        tr = tracer.Tracer(".")
        tr.spans = [["bench.round", 0, 100, None], ["wha.antipode_s", 10, 90, 0],
                    ["wha.verify_serial_s", 20, 60, 1], ["exactmath.elim_s", 30, 40, 2]]
        st = tr.self_times()
        self.assertEqual(st["bench.round"] * 1e9, 20)
        self.assertEqual(st["wha.antipode_s"] * 1e9, 70)
        self.assertEqual(st["wha.verify_serial_s"] * 1e9, 40)
        self.assertEqual(st["exactmath.elim_s"] * 1e9, 10)


class HostSpeed(unittest.TestCase):
    def test_sampler_takes_samples_and_stops(self):
        import signal
        import time

        sampler = pace.Pace()
        sampler.start()
        with sampler.paused():
            self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        t = time.monotonic()
        while time.monotonic() - t < 0.3:
            pace.probe()
        sampler.stop()
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(sampler.samples, 0)
        self.assertGreater(sampler.probe_ns, 0)

    def test_times_are_scaled_by_the_speed_sampled_meanwhile(self):
        self.assertEqual(pace.at_ref(10.0, (4, 2.0, 0)), 5.0)
        self.assertEqual(pace.at_ref(10.0, (0, 0.0, 0)), 10.0)
        rnd = Round()
        rnd.build_s = 2.0
        rnd.speed["build"] = [20, 10.0]  # mean speed 0.5 over 20 samples
        self.assertEqual(rnd.at_ref("build", 1.0), 1.0)
        rnd.verify_s = 3.0  # no sample taken: read at the round's speed
        self.assertAlmostEqual(rnd.at_ref("verify", 0.8), 2.4)


class Mutations(unittest.TestCase):
    def test_each_kind_changes_exactly_one_entry(self):
        from whalg.exactmath import Cyclotomic

        one = Cyclotomic.one(3)
        table = {(0, 0, 0): one, (0, 1, 1): one, (1, 1, 2): one}
        two = Cyclotomic.rational(3, 2)
        self.assertEqual(perturb(table, "scale", 0.5, 1, two, 3)[(0, 1, 1)], two)
        self.assertNotIn((0, 1, 1), perturb(table, "drop", 0.5, 1, two, 3))
        moved = perturb(table, "move", 0.5, 1, two, 3)
        self.assertNotIn((0, 1, 1), moved)
        self.assertEqual(moved[(0, 1, 2)], one)


if __name__ == "__main__":
    unittest.main()
