"""Tests of the benchmark command's own contract.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'

Builds perfbench like run.py does.  The metric-list test is quick; the
end-to-end test runs the cheapest workload (campaign_gpr) once per trace
mode, about half a minute in all.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def perfbench_metrics():
    """The metric names and units perfbench reports, by mode."""
    out = run.build_dir()
    run.build(out)
    listing = subprocess.run([str(out / "perfbench"), "--list-metrics"],
                             capture_output=True, text=True, check=True)
    found = {"e2e": {}, "layer": {}}
    for line in listing.stdout.splitlines():
        kind, name, unit = line.split()
        found[kind][name] = unit
    return found


class MetricList(unittest.TestCase):
    def test_perfbench_reports_exactly_the_benchmark_metrics(self):
        found = perfbench_metrics()
        self.assertEqual(found["e2e"],
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(found["layer"],
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         run.WORKLOADS)

    def test_setup_metric_is_declared(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"]
                                               for m in SPEC["end_to_end"])}])

    def test_check_result_flags_missing_and_extra_metrics(self):
        expected = {"a": "ms", "b": "s"}
        ok = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"a": {"value": 1.0, "unit": "ms"},
                          "b": {"value": 2.0, "unit": "s"}}}
        self.assertEqual(run.check_result(ok, expected), [])
        missing = json.loads(json.dumps(ok))
        del missing["metrics"]["b"]
        self.assertTrue(run.check_result(missing, expected))
        extra = json.loads(json.dumps(ok))
        extra["metrics"]["c"] = {"value": 1, "unit": "x"}
        self.assertTrue(run.check_result(extra, expected))
        wrong_unit = json.loads(json.dumps(ok))
        wrong_unit["metrics"]["a"]["unit"] = "s"
        self.assertTrue(run.check_result(wrong_unit, expected))
        self.assertTrue(run.check_result({"correct": True}, expected))


class Command(unittest.TestCase):
    def run_once(self, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             "campaign_gpr", "--seed", "3", "--seconds", "4", "--trace",
             str(trace)],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("host ") for l in lines))
        return json.loads(lines[-1])

    def test_every_metric_is_printed_in_both_modes(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_once(trace)
            self.assertEqual(set(result), run.RESULT_KEYS)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in SPEC[key]})


if __name__ == "__main__":
    unittest.main()
