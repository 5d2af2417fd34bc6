"""Statistics, metric tables and output records of the campaign benchmark.

run.py drives the C++ driver (campaign_bench) and turns its raw samples
into named metrics with this module. Everything here is pure and covered
by test_benchlib.py.
"""

import math
import statistics

WORKLOADS = ("paper_campaign", "flaky_campaign", "campaign_replay",
             "census_1024")

SUITES = ("tls", "dom_collection", "dns_manipulation", "pings", "dns_leak",
          "ipv6_leak", "tunnel_failure", "pcap_scan", "geo_api",
          "proxy_detection", "recursive_origin")

COUNTERS = ("netsim.transacts", "netsim.via_tunnel", "transport.exchanges",
            "transport.retries", "dns.lookups", "tls.handshakes",
            "http.fetches", "http.page_loads", "faults.injected",
            "netsim.capture_packets")

# name -> (unit, better). Order is the order of BENCHMARK.json.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "campaign_s.j1": ("s", "lower"),
    "campaign_s.jn": ("s", "lower"),
    "campaign_s.isolated": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _layer_metrics():
    m = {
        "ecosystem.shard_build_ms.p50": ("ms", "lower"),
        "ecosystem.shard_build_ms.p90": ("ms", "lower"),
        "ecosystem.catalog_gen_ms": ("ms", "lower"),
        "netsim.plane_build_ms": ("ms", "lower"),
        "ecosystem.hosts": ("count", "lower"),
        "ecosystem.arena_bytes_per_host": ("bytes", "lower"),
        "core.shard_ms.p50": ("ms", "lower"),
        "core.shard_ms.p90": ("ms", "lower"),
        "core.ground_truth_ms.p50": ("ms", "lower"),
        "vpn.connect_ms.p50": ("ms", "lower"),
    }
    for s in SUITES:
        m["core.suite_ms." + s] = ("ms", "lower")
    for s in SUITES:
        m["core.suite_exchanges." + s] = ("count", "lower")
    m["core.suite_us_per_exchange.tls"] = ("us", "lower")
    m["core.suite_us_per_exchange.dom_collection"] = ("us", "lower")
    for c in COUNTERS:
        m[c] = ("count", "lower")
    m.update({
        "store.fetch_us.p50": ("us", "lower"),
        "store.put_us.p50": ("us", "lower"),
        "store.artifact_bytes": ("bytes", "lower"),
        "core.codec_decode_us.p50": ("us", "lower"),
        "core.codec_encode_us.p50": ("us", "lower"),
        "analysis.serialize_ms": ("ms", "lower"),
        "util.pool.busy_s": ("s", "lower"),
        "util.pool.steals": ("count", "lower"),
        "util.pool.efficiency": ("ratio", "higher"),
        "core.campaign.join_wait_s": ("s", "lower"),
        "core.isolate.overhead_s": ("s", "lower"),
        "core.isolate.spawns": ("count", "lower"),
        "obs.trace_overhead_ratio": ("ratio", "lower"),
    })
    return m


LAYER_METRICS = _layer_metrics()

# Percentiles a timing may be reported at, and the sample count a reported
# percentile must leave beyond it.
PERCENTILES = (50, 90, 99, 99.9)
MIN_BEYOND = 10


# --- statistics --------------------------------------------------------------

def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Quartile distance as a share of the median (the run-to-run spread)."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values, q):
    """q-th percentile with linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples ranked above the q-th percentile of n samples."""
    # Rounded first, so 99.9% of 10000 is 9990, not 9990.000000000002.
    return n - math.ceil(round(q * n / 100.0, 9))


def highest_percentile(n):
    """Highest reportable percentile: the one that still has MIN_BEYOND
    samples beyond it. None when even the median has not."""
    ok = [q for q in PERCENTILES if samples_beyond(n, q) >= MIN_BEYOND]
    return max(ok) if ok else None


def reported_percentile(values, q):
    """percentile(), refusing a percentile the sample count cannot carry."""
    top = highest_percentile(len(values))
    if top is None or q > top:
        raise ValueError("p%s needs %d samples beyond it; %d samples give %s"
                         % (q, MIN_BEYOND, len(values), top))
    return percentile(values, q)


# --- records -----------------------------------------------------------------

RECORD_KEYS = ("workload", "metric", "value", "unit", "better", "samples")


def record(workload, metric, value, samples):
    unit, better = (E2E_METRICS.get(metric) or LAYER_METRICS[metric])
    return {"workload": workload, "metric": metric, "value": float(value),
            "unit": unit, "better": better, "samples": int(samples)}


def validate_record(r):
    if tuple(r) != RECORD_KEYS:
        raise ValueError("record keys %s != %s" % (tuple(r), RECORD_KEYS))
    if r["workload"] not in WORKLOADS:
        raise ValueError("unknown workload %r" % r["workload"])
    if r["metric"] not in E2E_METRICS and r["metric"] not in LAYER_METRICS:
        raise ValueError("unknown metric %r" % r["metric"])
    if not isinstance(r["value"], float) or not math.isfinite(r["value"]):
        raise ValueError("%s: value %r is not a finite number"
                         % (r["metric"], r["value"]))
    if r["better"] not in ("lower", "higher"):
        raise ValueError("%s: better=%r" % (r["metric"], r["better"]))
    if not isinstance(r["samples"], int) or r["samples"] < 1:
        raise ValueError("%s: samples=%r" % (r["metric"], r["samples"]))


def result_line(records, attempted, failed):
    """The benchmark's last stdout line: {correct, attempted, failed,
    metrics: {name: {value, unit}}}. A run whose checks fail exits before
    it gets here, so `correct` is always true."""
    for r in records:
        validate_record(r)
    return {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {r["metric"]: {"value": r["value"], "unit": r["unit"]}
                    for r in records},
    }


def validate_result(line, trace):
    if tuple(line) != ("correct", "attempted", "failed", "metrics"):
        raise ValueError("result keys %s" % (tuple(line),))
    if not isinstance(line["attempted"], int) or line["attempted"] < 1:
        raise ValueError("attempted=%r" % line["attempted"])
    if not isinstance(line["failed"], int) or line["failed"] < 0:
        raise ValueError("failed=%r" % line["failed"])
    expected = LAYER_METRICS if trace else E2E_METRICS
    if set(line["metrics"]) != set(expected):
        missing = set(expected) - set(line["metrics"])
        extra = set(line["metrics"]) - set(expected)
        raise ValueError("metrics missing %s, unexpected %s"
                         % (sorted(missing), sorted(extra)))
    for name, m in line["metrics"].items():
        if tuple(m) != ("value", "unit") or m["unit"] != expected[name][0]:
            raise ValueError("%s: %r" % (name, m))


# --- raw driver output -> records --------------------------------------------

def e2e_records(workload, raw, setup_samples):
    """Records of one untraced run: medians over the run's repeats."""
    recs = [record(workload, "setup_s", median(setup_samples),
                   len(setup_samples))]
    for mode in ("j1", "jn", "isolated"):
        recs.append(record(workload, "campaign_s." + mode,
                           median(raw[mode]), len(raw[mode])))
    recs.append(record(workload, "peak_rss_mb", raw["peak_rss_kb"] / 1024.0, 1))
    return recs


def layer_records(workload, raw):
    """Records of one traced run."""
    recs = []

    def add(metric, value, samples=1):
        recs.append(record(workload, metric, value, samples))

    for name, key in (("ecosystem.shard_build_ms", "shard_build_ms"),
                      ("core.shard_ms", "shard_ms")):
        v = raw[key]
        add(name + ".p50", reported_percentile(v, 50), len(v))
        add(name + ".p90", reported_percentile(v, 90), len(v))
    add("ecosystem.catalog_gen_ms", raw["catalog_gen_ms"])
    add("netsim.plane_build_ms", raw["plane_build_ms"])
    add("ecosystem.hosts", raw["hosts"])
    add("ecosystem.arena_bytes_per_host",
        raw["arena_used_bytes"] / raw["hosts"])
    add("core.ground_truth_ms.p50", median(raw["ground_truth_ms"]),
        len(raw["ground_truth_ms"]))
    add("vpn.connect_ms.p50", median(raw["connect_ms"]),
        len(raw["connect_ms"]))
    suite_ms = {s: median(raw["suite_ms"][s]) for s in SUITES}
    passes = len(raw["suite_ms"][SUITES[0]])
    for s in SUITES:
        add("core.suite_ms." + s, suite_ms[s], passes)
    for s in SUITES:
        add("core.suite_exchanges." + s, raw["suite_exchanges"][s])
    for s in ("tls", "dom_collection"):
        add("core.suite_us_per_exchange." + s,
            1000.0 * suite_ms[s] / raw["suite_exchanges"][s], passes)
    for c in COUNTERS:
        add(c, raw["counters"][c])
    for metric, key in (("store.fetch_us.p50", "store_fetch_us"),
                        ("store.put_us.p50", "store_put_us"),
                        ("core.codec_decode_us.p50", "store_decode_us"),
                        ("core.codec_encode_us.p50", "store_encode_us")):
        add(metric, median(raw[key]), len(raw[key]))
    add("store.artifact_bytes", raw["store_artifact_bytes"])
    add("analysis.serialize_ms", median(raw["serialize_ms"]),
        len(raw["serialize_ms"]))
    pool_n = len(raw["pool_busy_s"])
    add("util.pool.busy_s", median(raw["pool_busy_s"]), pool_n)
    add("util.pool.steals", median(raw["pool_steals"]), pool_n)
    add("util.pool.efficiency", median(raw["pool_efficiency"]), pool_n)
    add("core.campaign.join_wait_s", median(raw["join_wait_s"]), pool_n)
    add("core.isolate.overhead_s",
        median(raw["isolated_s"]) - median(raw["inproc_s"]),
        len(raw["isolated_s"]))
    add("core.isolate.spawns", raw["isolate_spawns"])
    add("obs.trace_overhead_ratio",
        raw["traced_wall_s"] / raw["untraced_j1_s"])
    return recs
