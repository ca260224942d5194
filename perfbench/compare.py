#!/usr/bin/env python3
"""Compares saved benchmark results, refusing silent cross-host comparisons.

Usage:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a file holding the standard output of one
`perfbench/run.py` run, or a directory of such files. Runs are grouped by
workload and trace flag; each metric's median per side is printed with
NEW/BASE. The host blocks (everything but the git revision) must agree:
when they do not, the differing host blocks are printed and the comparison
stops with exit code 3.
"""

import json
import os
import statistics
import sys


def load(path):
    """Returns [(header, result)] for every run output under `path`."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for f in files:
        with open(f) as fh:
            lines = fh.read().strip().splitlines()
        header = next((json.loads(l[len("# run "):]) for l in lines
                       if l.startswith("# run ")), None)
        if header is None or not lines:
            sys.exit(f"compare: {f} holds no benchmark run")
        runs.append((header, json.loads(lines[-1])))
    return runs


def host_key(header):
    host = dict(header["host"])
    host.pop("git_revision", None)
    return host


def medians(runs):
    """{(workload, trace): {metric: (median, unit, runs)}}."""
    groups = {}
    for header, result in runs:
        if not result.get("correct"):
            continue
        g = groups.setdefault((header["workload"], header["trace"]), {})
        for name, m in result["metrics"].items():
            g.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {k: {n: (statistics.median(v), u, len(v)) for n, (u, v) in g.items()}
            for k, g in groups.items()}


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        sys.exit(__doc__)
    base, new = load(args[0]), load(args[1])
    hosts = {json.dumps(host_key(h), sort_keys=True) for h, _ in base + new}
    if len(hosts) > 1:
        print("HOST MISMATCH: these results were measured on different hosts:")
        for h in sorted(hosts):
            print(f"  {h}")
        sys.exit(3)
    mb, mn = medians(base), medians(new)
    print(f"{'workload':<16} {'metric':<32} {'base':>12} {'new':>12} {'new/base':>9} unit")
    for key in sorted(set(mb) & set(mn)):
        for name in sorted(set(mb[key]) & set(mn[key])):
            (b, unit, nb), (n, _, nn) = mb[key][name], mn[key][name]
            ratio = f"{n / b:.3f}" if b else "-"
            print(f"{key[0]:<16} {name:<32} {b:>12.5g} {n:>12.5g} {ratio:>9} {unit} "
                  f"(runs {nb}/{nn})")


if __name__ == "__main__":
    main()
