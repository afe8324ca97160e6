"""Tests for the numbers the benchmark computes itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import summarize

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def raw_doc(**over):
    """A minimal raw maicc_perfbench document."""
    doc = {
        "setup_s": [0.3, 0.1, 0.2],
        "op_ms": [float(i) for i in range(1, 21)],
        "traced_op_ms": [11.0, 12.0],
        "attempted": 22, "failed": 0, "run_ok": True, "failures": [],
        "peak_rss_mb": 40.0,
        "sim": {"cycles": 1e6, "requests": 4, "requests_ok": 4,
                "p99_ms": 1.5},
        "model": {"latency_err": 0.3, "efficiency_err": 0.2,
                  "node_cycles_err": 0.4, "max_rate_under_slo": 1e4},
        "counters": [{"name": "noc.sim.cycles", "value": 4000,
                      "unit": "cycles"}],
        # name, start, end, parent, op
        "spans": [["bench.op", 0, 10_000_000, -1, 1],
                  ["noc.run", 1_000_000, 5_000_000, 0, 1],
                  ["bench.op", 20_000_000, 26_000_000, -1, 3],
                  ["noc.run", 21_000_000, 23_000_000, 2, 3]],
    }
    doc.update(over)
    return doc


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [("p", 0, 100, -1, 0),
                 ("a", 10, 30, 0, 0),
                 ("b", 20, 50, 0, 0),    # overlaps a: counted once
                 ("c", 90, 120, 0, 0),   # clipped to the parent
                 ("d", 12, 18, 1, 0)]    # grandchild: a's, not p's
        self.assertEqual(summarize.self_times(spans), [50, 14, 30, 30, 6])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(summarize.self_times([("x", 5, 9, -1, 0)]), [4])

    def test_module_self_ms_is_per_traced_op(self):
        spans = [tuple(s) for s in raw_doc()["spans"]]
        got = summarize.module_self_ms(spans, {1, 3})
        # bench: (10 - 4) + (6 - 2) = 10 ms over 2 ops; noc: 6 ms / 2.
        self.assertAlmostEqual(got["bench"], 5.0)
        self.assertAlmostEqual(got["noc"], 3.0)
        self.assertEqual(got["system"], 0.0)


class TailPercentile(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertIsNone(summarize.tail_percentile(list(range(10))))
        self.assertEqual(summarize.tail_percentile(list(range(11))),
                         (0, 100 / 11, 11))

    def test_leaves_exactly_ten_samples_beyond(self):
        for n in (11, 37, 100, 2000):
            samples = [float(x) for x in range(n, 0, -1)]  # unsorted
            value, pct, count = summarize.tail_percentile(samples)
            self.assertEqual(count, n)
            self.assertEqual(sum(1 for s in samples if s > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_hundred_samples_give_p90(self):
        value, pct, _ = summarize.tail_percentile(list(range(1, 101)))
        self.assertEqual((value, pct), (90, 90.0))


class MetricNames(unittest.TestCase):
    def test_benchmark_json_passes(self):
        summarize.check_spec(SPEC)

    def test_rejects_bad_characters(self):
        for bad in ("host op", "a/b", "_x", "x" * 65, ""):
            spec = {"end_to_end": [{"name": bad, "unit": "ms"}],
                    "per_layer": []}
            with self.assertRaises(ValueError, msg=bad):
                summarize.check_spec(spec)

    def test_rejects_duplicates_across_lists(self):
        spec = {"end_to_end": [{"name": "a.b", "unit": "ms"}],
                "per_layer": [{"name": "a.b", "unit": "ms"}]}
        with self.assertRaises(ValueError):
            summarize.check_spec(spec)


class Units(unittest.TestCase):
    def test_spec_metric_without_unit_is_rejected(self):
        spec = {"end_to_end": [{"name": "a"}], "per_layer": []}
        with self.assertRaises(ValueError):
            summarize.check_spec(spec)

    def test_every_end_to_end_metric_printed_with_declared_unit(self):
        got = summarize.select(summarize.end_to_end(raw_doc()),
                               SPEC["end_to_end"], fill_missing=False)
        self.assertEqual(list(got),
                         [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            self.assertEqual(got[m["name"]]["unit"], m["unit"])
            self.assertNotEqual(got[m["name"]]["value"], 0)

    def test_every_per_layer_metric_printed_with_declared_unit(self):
        got = summarize.select(summarize.per_layer(raw_doc()),
                               SPEC["per_layer"], fill_missing=True)
        self.assertEqual(list(got), [m["name"] for m in SPEC["per_layer"]])
        for m in SPEC["per_layer"]:
            self.assertEqual(got[m["name"]]["unit"], m["unit"])
        self.assertAlmostEqual(got["noc.run_ms"]["value"], 3.0)
        self.assertAlmostEqual(got["noc.cycles_per_host_s"]["value"],
                               4000 / 3e-3)

    def test_unit_mismatch_and_undeclared_metrics_are_errors(self):
        decl = [{"name": "a", "unit": "ms"}]
        with self.assertRaises(ValueError):
            summarize.select({"a": (1.0, "s")}, decl, fill_missing=True)
        with self.assertRaises(ValueError):
            summarize.select({"a": (1.0, "ms"), "b": (1.0, "ms")}, decl,
                             fill_missing=True)
        with self.assertRaises(ValueError):
            summarize.select({}, decl, fill_missing=False)


class ChromeTrace(unittest.TestCase):
    def test_complete_events_in_microseconds(self):
        ev = summarize.chrome_trace([("noc.run", 2000, 5000, 0, 7)])
        self.assertEqual(ev["traceEvents"][0], {
            "name": "noc.run", "cat": "noc", "ph": "X", "ts": 2.0,
            "dur": 3.0, "pid": 1, "tid": 1,
            "args": {"op": 7, "parent": 0}})


if __name__ == "__main__":
    unittest.main()
