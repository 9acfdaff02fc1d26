#!/usr/bin/env python3
"""Build and run the explorer's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid4_pruned --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single-workload run builds the benchmark package (`perfbench/Cargo.toml`,
into `$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload, writes
its run record to `.bench_runs/` and prints, as the last line of standard
output, the result object with the keys `correct`, `attempted`, `failed` and
`metrics`. `--workload all` runs every workload in turn and prints one table
of every metric with its unit. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["grid4_pruned", "refine_fine", "serve_mixed"]
# A run measures for --seconds and then checks its outputs; it is stopped
# if it has not finished well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest):
        fail(f"missing {manifest}")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed (the benchmark builds against the repository's crates)")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "mhla-perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def machine():
    """The reproducibility block of every run record."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def output(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "rustc": output(["rustc", "--version"]),
        "git_commit": output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
    }


def run_one(exe, workload, seed, seconds, trace, records):
    """Runs one workload; returns (result object, record path)."""
    os.makedirs(records, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = os.path.join(records, f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--record", record]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    for line in lines[:-1]:
        print(line)
    with open(record) as f:
        doc = json.load(f)
    doc["machine"] = machine()
    with open(record, "w") as f:
        json.dump(doc, f, indent=1)
    return result, record


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--records", default=".bench_runs", help="directory for run records")
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be >= 1")
    a.seed %= 2**64
    exe = build()
    if a.workload != "all":
        result, _ = run_one(exe, a.workload, a.seed, a.seconds, a.trace, a.records)
        print(json.dumps(result, separators=(",", ":")))
        return
    rows = []
    for w in WORKLOADS:
        result, record = run_one(exe, w, a.seed, a.seconds, a.trace, a.records)
        with open(record) as f:
            doc = json.load(f)
        rows.append((w, result, doc))
    print()
    print(f"{'workload':14} {'metric':32} {'value':>14}  unit       samples")
    for w, result, doc in rows:
        for name, m in doc["metrics"].items():
            print(f"{w:14} {name:32} {m['value']:14.6g}  {m['unit']:10} {m['samples']}")
        print(f"{w:14} {'correct':32} {str(result['correct']):>14}  "
              f"attempted {result['attempted']} failed {result['failed']}")
    ok = all(r["correct"] for _, r, _ in rows)
    print(json.dumps({"correct": ok, "workloads": [w for w, _, _ in rows]}))


if __name__ == "__main__":
    main()
