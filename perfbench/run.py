#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics.

Run from the root of a TAPAS checkout:

    python3 perfbench/run.py --workload fleet_week --seed 7 \
        --seconds 20 --trace 0

The harness (perfbench/harness, built with perfbench/CMakeLists.txt into
.bench_build/) measures the workload for --seconds and reports every
metric. This script prints each one as a `name: value unit (note)` line
and then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

On top of the harness's own checks it fails the run when
  * the self-test of the harness's order statistics fails;
  * the run's seed is the workload's default seed and the final state
    digest differs from the one recorded in perfbench/expected.json;
  * an earlier run of the same binary and seed in this checkout ended
    with other exact counts or another digest;
  * a metric BENCHMARK.json names is missing, not finite, or in
    another unit.

`python3 perfbench/run.py --self-test` builds and runs only the
self-test.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_week", "request_hour", "emergency_sweep")
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once and build the harness; return the build dir."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "tapas_perfbench", "perfbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return build_dir


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def fmt(value):
    if value is None:
        return "nan"
    return repr(float(value))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("BENCHMARK.json", "CMakeLists.txt",
                 os.path.join("src", "sim", "cluster.hh")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"run from the root of a TAPAS checkout ({need} missing)")

    build_dir = build(root)
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    if args.self_test:
        print(selftest.stdout, end="")
        return selftest.returncode
    if args.workload is None:
        fail("--workload is required")

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[args.workload]
    seed = expected["default_seed"] if args.seed is None else args.seed

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(build_dir, "tapas_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"harness exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    wall = time.monotonic() - start

    metrics = report["metrics"]
    attempted = report["attempted"]
    failures = list(report["failures"])

    # A failed check counts against the run; the simulations the
    # harness ran are the attempted operations.
    def check(ok, what):
        if not ok:
            failures.append(what)

    check(selftest.returncode == 0, "order-statistics self-test failed")
    if seed == expected["default_seed"]:
        check(report["digest"] == expected["digest"],
              f"digest {report['digest']} differs from the recorded "
              f"{expected['digest']} for the default seed {seed}")

    # Exact counts and the digest must repeat across runs of one binary
    # and seed. Traced runs add counts (kernel lanes) that untraced runs
    # do not take, so runs are compared on the counts both have.
    exact = {"digest": report["digest"], **report["exact"]}
    exact_dir = os.path.join(build_dir, "exact", file_hash(binary))
    os.makedirs(exact_dir, exist_ok=True)
    exact_path = os.path.join(exact_dir, f"{args.workload}-{seed}.json")
    before = {}
    if os.path.exists(exact_path):
        with open(exact_path) as f:
            before = json.load(f)
    drift = sorted(k for k in set(before) & set(exact)
                   if before[k] != exact[k])
    check(not drift, "exact counts drifted from an earlier run of this "
          "seed: " + ", ".join(drift))
    with open(exact_path + ".tmp", "w") as f:
        json.dump({**before, **exact}, f, sort_keys=True)
    os.replace(exact_path + ".tmp", exact_path)

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    for spec in wanted:
        got = metrics.get(spec["name"])
        check(got is not None and got["value"] is not None
              and math.isfinite(got["value"]) and got["unit"] == spec["unit"],
              f"metric {spec['name']} missing, not finite or not in "
              f"{spec['unit']}")

    failed = min(len(failures), attempted)
    metrics["failed_frac"]["value"] = failed / attempted if attempted else 1.0
    for name in sorted(metrics):
        m = metrics[name]
        note = f" ({m['note']})" if m["note"] else ""
        print(f"{name}: {fmt(m['value'])} {m['unit']}{note}")
    print(f"# workload {args.workload}, seed {seed}, trace {args.trace}, "
          f"digest {report['digest']}, {wall:.1f} s")
    for what in failures:
        print(f"# FAILED: {what}")

    result = {name: {"value": metrics[name]["value"],
                     "unit": metrics[name]["unit"]}
              for name in (s["name"] for s in wanted) if name in metrics}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
