#!/usr/bin/env python3
"""Builds the APOTS benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

The benchmark is the `perfbench` package in this directory, built with
cargo (release, offline) into $CARGO_TARGET_DIR (default `.bench_build`).
It runs with APOTS_THREADS set to the number of CPUs this process may use.
The last line of standard output is the result JSON object; `--workload
all` runs every workload in turn and prints one table of their metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["train-h-adv", "serve-h-closed", "scenario-grid"]


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds the benchmark and returns the executable's path."""
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        die(f"no crates/ next to {os.path.dirname(manifest)}: not a source checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    # Cargo's own output goes to stderr so stdout ends with the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        die("build failed", done.returncode)
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        die(f"build produced no {exe}")
    return exe


def child_env():
    env = dict(os.environ)
    env["APOTS_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_one(exe, argv):
    """Runs one workload with stdout passed through; returns its exit code."""
    return subprocess.run([exe] + argv, cwd=ROOT, env=child_env()).returncode


def run_all(exe, argv):
    """Runs every workload and prints one table of all their metrics."""
    rows, failed = [], False
    for w in WORKLOADS:
        done = subprocess.run([exe, "--workload", w] + argv, cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        sys.stdout.write(done.stdout)
        samples = {}
        for line in lines:
            parts = line.split()
            if len(parts) >= 3 and parts[-1].startswith("(n="):
                samples[parts[0]] = parts[-1][3:-1]
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            failed = True
            rows.append((w, "FAILED", "", "", ""))
            continue
        for name, m in result["metrics"].items():
            rows.append((w, name, f"{m['value']:.6g}", m["unit"], samples.get(name, "-")))
    print()
    print(f"{'workload':<16} {'metric':<32} {'value':>14} {'unit':<9} samples")
    for w, name, value, unit, n in rows:
        print(f"{w:<16} {name:<32} {value:>14} {unit:<9} {n}")
    return 1 if failed else 0


def main():
    argv = sys.argv[1:]
    exe = build()
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            sys.exit(run_all(exe, argv[:i] + argv[i + 2:]))
    sys.exit(run_one(exe, argv))


if __name__ == "__main__":
    main()
