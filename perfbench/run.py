#!/usr/bin/env python3
"""Builds and runs the IDEM benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --short      # brief run, same output

Run from the root of a checkout. The benchmark is compiled from source into
$CARGO_TARGET_DIR (default .bench_build), then perfbench/idem_perfbench runs
the workload. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics. Before the result, one `host:` line stamps
the CPU model, nproc, commit, build type and the steal and softirq shares
of /proc/stat over the run. The last line of stdout is the result:

    {"correct": true, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}

The exit status is 0 only when the build, the run and every correctness
check succeeded. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SHORT_SECONDS = 2


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; kills it and waits on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 1


def build(deadline):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_checked(["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                         max(1, deadline - time.time()))
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_checked(["cmake", "--build", out, "--target", "idem_perfbench", "-j", jobs],
                     max(1, deadline - time.time()))
    binary = os.path.join(out, "idem_perfbench")
    return binary if rc == 0 and os.path.exists(binary) else None


def proc_stat_cpu():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return [int(x) for x in fields[1:9]]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the source tree by content instead.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_facts(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_id(),
        "build_type": BUILD_TYPE,
        "steal_pct": 100.0 * delta[7] / total,
        "softirq_pct": 100.0 * delta[6] / total,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured span (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help=f"brief run ({SHORT_SECONDS} s) with the full output and checks")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = SHORT_SECONDS if args.short else args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; expected one of {workloads}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(time.time() + BUILD_TIMEOUT_S)
    if binary is None:
        log("build failed")
        return 1

    before = proc_stat_cpu()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(seconds), "--trace", str(args.trace)]
    # Own process group: the benchmark forks its samples, and a timeout must
    # stop those too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"benchmark timed out after {RUN_TIMEOUT_S} s")
        return 1
    host = host_facts(before, proc_stat_cpu())
    lines = stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {proc.returncode})")
        return 1
    report = json.loads(lines[-1])

    measured = report["metrics"]
    if args.trace:
        measured["host.steal_pct"] = {"value": host["steal_pct"], "unit": "%"}
        measured["host.softirq_pct"] = {"value": host["softirq_pct"], "unit": "%"}
    checks = report["checks"]
    names = {m["name"] for m in wanted}
    for m in wanted:
        got = measured.get(m["name"])
        checks.append({"name": "reported:" + m["name"],
                       "ok": got is not None and got["unit"] == m["unit"],
                       "detail": "missing" if got is None else f"unit {got['unit']}"})
    extra = sorted(set(measured) - names)
    checks.append({"name": "no_unlisted_metrics", "ok": not extra, "detail": " ".join(extra)})

    failed_checks = [c for c in checks if not c["ok"]]
    for c in failed_checks:
        log(f"check failed: {c['name']} {c['detail']}")
    correct = proc.returncode == 0 and report["correct"] and not failed_checks

    print("host: " + json.dumps(host))
    print(f"checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: measured[m["name"]] for m in wanted if m["name"] in measured},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
