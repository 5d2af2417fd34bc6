"""Tests of the benchmark's Python helpers.

    python3 -m unittest discover -s campaign_bench -p 'test_*.py'
(or `python3 campaign_bench/run.py --selftest`, which adds the C++ tests).
"""

import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


def fake_trace_raw(shards=124):
    ms = [float(i + 1) for i in range(shards)]
    return {
        "catalog_gen_ms": 1.5, "plane_build_ms": 7.25,
        "shard_build_ms": ms, "shard_ms": [10 * v for v in ms],
        "ground_truth_ms": [9.0, 11.0, 10.0], "connect_ms": [0.01, 0.03, 0.02],
        "suite_ms": {s: [100.0, 120.0] for s in benchlib.SUITES},
        "suite_exchanges": {s: 50 for s in benchlib.SUITES},
        "counters": {c: 7 for c in benchlib.COUNTERS},
        "hosts": 200, "arena_used_bytes": 60800,
        "store_encode_us": [1.0, 2.0, 3.0], "store_put_us": [4.0, 5.0],
        "store_fetch_us": [6.0], "store_decode_us": [7.0, 8.0, 9.0],
        "store_artifact_bytes": 4096, "serialize_ms": [0.5, 0.7, 0.6],
        "pool_busy_s": [3.0, 5.0], "pool_steals": [2.0, 4.0],
        "pool_efficiency": [0.9, 0.95], "join_wait_s": [0.1, 0.3],
        "inproc_s": [1.0, 1.2], "isolated_s": [1.3, 1.5],
        "isolate_spawns": 4, "traced_wall_s": 5.5, "untraced_j1_s": 5.0,
        "traced_shards": 124,
    }


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q[0], q[2]))
        self.assertAlmostEqual(benchlib.spread(values),
                               (q[2] - q[0]) / statistics.median(values))

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)

    def test_percentile_interpolates(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(benchlib.percentile(values, 0), 1.0)
        self.assertEqual(benchlib.percentile(values, 100), 10.0)
        self.assertAlmostEqual(benchlib.percentile(values, 50), 5.5)
        self.assertAlmostEqual(benchlib.percentile(values, 90), 9.1)


class PercentileRule(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(124, 90), 12)
        self.assertEqual(benchlib.samples_beyond(62, 90), 6)
        self.assertEqual(benchlib.samples_beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(benchlib.highest_percentile(19))
        self.assertEqual(benchlib.highest_percentile(20), 50)
        self.assertEqual(benchlib.highest_percentile(62), 50)
        self.assertEqual(benchlib.highest_percentile(100), 90)
        self.assertEqual(benchlib.highest_percentile(124), 90)
        self.assertEqual(benchlib.highest_percentile(1000), 99)
        self.assertEqual(benchlib.highest_percentile(10000), 99.9)

    def test_one_pass_of_62_shards_cannot_carry_p90(self):
        with self.assertRaises(ValueError):
            benchlib.reported_percentile([1.0] * 62, 90)
        self.assertEqual(benchlib.reported_percentile([1.0] * 124, 90), 1.0)


class Schema(unittest.TestCase):
    def test_record_keys_and_types(self):
        r = benchlib.record("paper_campaign", "campaign_s.j1", 3, 5)
        self.assertEqual(tuple(r), benchlib.RECORD_KEYS)
        self.assertEqual(r["unit"], "s")
        self.assertEqual(r["better"], "lower")
        self.assertIsInstance(r["value"], float)
        benchlib.validate_record(r)

    def test_bad_records_are_refused(self):
        good = benchlib.record("census_1024", "peak_rss_mb", 12.5, 1)
        for key, bad in (("workload", "nope"), ("metric", "nope"),
                         ("value", float("nan")), ("samples", 0),
                         ("better", "sideways")):
            r = dict(good)
            r[key] = bad
            with self.assertRaises(ValueError, msg=key):
                benchlib.validate_record(r)

    def test_e2e_result_line(self):
        raw = {"j1": [3.0, 3.2, 3.1], "jn": [0.9, 1.0], "isolated": [1.1],
               "peak_rss_kb": 46080}
        recs = benchlib.e2e_records("paper_campaign", raw, [0.01, 0.02, 0.03])
        line = benchlib.result_line(recs, attempted=372, failed=0)
        benchlib.validate_result(line, trace=False)
        self.assertEqual(list(line), ["correct", "attempted", "failed",
                                      "metrics"])
        self.assertEqual(line["metrics"]["campaign_s.j1"],
                         {"value": 3.1, "unit": "s"})
        self.assertEqual(line["metrics"]["peak_rss_mb"]["value"], 45.0)
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.02)
        json.loads(json.dumps(line))

    def test_layer_result_line(self):
        recs = benchlib.layer_records("flaky_campaign", fake_trace_raw())
        line = benchlib.result_line(recs, attempted=124, failed=0)
        benchlib.validate_result(line, trace=True)
        m = line["metrics"]
        self.assertEqual(m["ecosystem.arena_bytes_per_host"]["value"], 304.0)
        self.assertAlmostEqual(m["core.isolate.overhead_s"]["value"], 0.3)
        self.assertAlmostEqual(m["obs.trace_overhead_ratio"]["value"], 1.1)
        self.assertAlmostEqual(
            m["core.suite_us_per_exchange.tls"]["value"], 1000 * 110 / 50)

    def test_missing_metric_is_refused(self):
        recs = benchlib.e2e_records(
            "census_1024", {"j1": [1.0], "jn": [1.0], "isolated": [1.0],
                            "peak_rss_kb": 1024}, [0.1])
        line = benchlib.result_line(recs[:-1], attempted=1, failed=0)
        with self.assertRaises(ValueError):
            benchlib.validate_result(line, trace=False)

    def test_benchmark_json_names_these_metrics(self):
        path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(benchlib.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in bench["end_to_end"]}, benchlib.E2E_METRICS)
        self.assertEqual({m["name"]: (m["unit"], m["better"])
                          for m in bench["per_layer"]},
                         benchlib.LAYER_METRICS)


if __name__ == "__main__":
    unittest.main()
