#!/usr/bin/env python3
"""The campaign benchmark. Run from the root of a checkout:

    python3 campaign_bench/run.py --workload paper_campaign --seed 20181031 \\
        --seconds 20 --trace 0

It builds the vpna libraries and the driver from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the workload, checks every payload,
and prints as its last stdout line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1. The line
before it is the structured record document (also written under
<build>/results/). `--selftest` runs the benchmark's own tests instead.
See README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was
import benchlib  # noqa: E402

DEFAULT_SEED = 20181031
SETUP_REPEATS = 25


def fatal(msg, code=2):
    print("campaign_bench: " + msg, file=sys.stderr)
    sys.exit(code)


def jobs_n():
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(cores, 4))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets=("campaign_bench",)):
    """Configures (once) and builds; returns the cmake build tree."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fatal("no vpna sources at %s/src; run from a checkout" % root)
    tree = os.path.join(build_dir(), "cmake")
    log_path = os.path.join(build_dir(), "build.log")
    os.makedirs(tree, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", str(jobs_n()), "--target"]
                 + list(targets))
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=850) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fatal("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return tree


def driver(tree, *args, timeout=170):
    """Runs the driver and returns its last stdout line as JSON; exits on
    any failure without printing a result."""
    proc = subprocess.run([os.path.join(tree, "campaign_bench")] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fatal("driver %s exited %d" % (args[0], proc.returncode),
              code=proc.returncode or 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setup(tree, workload, seed):
    """Seconds from process start until the driver is ready to dispatch
    the workload's first shard."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [os.path.join(tree, "campaign_bench"), "setup", "--workload",
         workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or json.loads(line) != {"ready": True}:
        sys.stderr.write(err)
        fatal("setup of %s failed" % workload)
    return elapsed


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(info):
    return {
        "nproc": os.cpu_count(),
        "jobs_n": jobs_n(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests and exit")
    args = ap.parse_args()

    if args.selftest:
        tree = build(("campaign_bench_test",))
        rc = subprocess.call([sys.executable, "-B", "-m", "unittest", "-q",
                              "test_benchlib"], cwd=HERE)
        return rc or subprocess.call([os.path.join(tree, "campaign_bench_test")])
    if args.workload is None:
        ap.error("--workload is required")

    tree = build()
    info = driver(tree, "info")
    if info["sanitized"]:
        fatal("refusing to report from a sanitizer build")
    work = os.path.join(build_dir(), "runs")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--jobs", str(jobs_n()), "--work-dir", work]

    if args.trace:
        raw = driver(tree, "trace", *common)
        records = benchlib.layer_records(args.workload, raw)
        attempted = raw["traced_shards"]
        failed = 0
        extra = {"spans": raw["spans"]}
    else:
        setups = [timed_setup(tree, args.workload, args.seed)
                  for _ in range(SETUP_REPEATS)]
        raw = driver(tree, "e2e", *common, "--seconds", str(args.seconds),
                     timeout=args.seconds + 150)
        records = benchlib.e2e_records(args.workload, raw, setups)
        attempted = raw["attempted"]
        failed = raw["failed"]
        extra = {"payload_fingerprint": raw["payload_fingerprint"]}

    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "machine": fingerprint(info), **extra, "records": records}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(doc, f, indent=1)
    line = benchlib.result_line(records, attempted, failed)
    benchlib.validate_result(line, trace=bool(args.trace))
    print(json.dumps(doc))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
