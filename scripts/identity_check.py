#!/usr/bin/env python3
"""Byte-identity check of two dfence binaries over the benchmark suite.

Usage: scripts/identity_check.py PARENT_DFENCE CHANGE_DFENCE

For every subject of `dfence bench list` under TSO and PSO, at --jobs 1
and --jobs 4, runs

    dfence bench SUBJECT --model M --jobs J --dump --metrics-out FILE

with both binaries and compares stdout, the exit code and the `counters`
object of the metrics file. Every difference is printed. A changed
stdout or exit code, or a counter whose value changed or that the change
removed, fails the check (exit 1); counters only the change registers
are listed separately and do not fail it.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

MODELS = ("tso", "pso")
JOBS = (1, 4)


def subjects(dfence):
    out = subprocess.run([dfence, "bench", "list"], check=True,
                         capture_output=True, text=True).stdout
    names = []
    for line in out.splitlines():
        m = re.match(r"^(\S.*?)\s{2,}", line)
        if m:
            names.append(m.group(1))
    return names


def run(dfence, subject, model, jobs, tmp):
    metrics = os.path.join(tmp, "metrics.json")
    if os.path.exists(metrics):
        os.remove(metrics)
    p = subprocess.run([dfence, "bench", subject, "--model", model,
                        "--jobs", str(jobs), "--dump",
                        "--metrics-out", metrics],
                       capture_output=True, text=True)
    counters = {}
    if os.path.exists(metrics):
        with open(metrics) as f:
            counters = json.load(f).get("counters", {})
    return p.stdout, p.returncode, counters


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = sys.argv[1], sys.argv[2]
    names = subjects(parent)
    if names != subjects(change):
        print("FAIL: `dfence bench list` differs")
        return 1
    failures = 0
    added = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for model in MODELS:
                for jobs in JOBS:
                    cell = f"{name} {model} jobs={jobs}"
                    out_a, rc_a, ctr_a = run(parent, name, model, jobs, tmp)
                    out_b, rc_b, ctr_b = run(change, name, model, jobs, tmp)
                    diffs = []
                    if rc_a != rc_b:
                        diffs.append(f"exit code {rc_a} -> {rc_b}")
                    if out_a != out_b:
                        diffs.append("stdout differs")
                    for key in sorted(ctr_a):
                        if key not in ctr_b:
                            diffs.append(f"counter {key} removed")
                        elif ctr_a[key] != ctr_b[key]:
                            diffs.append(f"counter {key} "
                                         f"{ctr_a[key]} -> {ctr_b[key]}")
                    for key in sorted(set(ctr_b) - set(ctr_a)):
                        added.setdefault(key, []).append(
                            f"{cell}: {ctr_b[key]}")
                    if diffs:
                        failures += 1
                        for d in diffs:
                            print(f"FAIL {cell}: {d}")
                    else:
                        print(f"ok   {cell}")
    for key, cells in sorted(added.items()):
        print(f"added counter {key} in {len(cells)} cells")
        for c in cells:
            print(f"  {c}")
    cells = len(names) * len(MODELS) * len(JOBS)
    print(f"{cells - failures}/{cells} cells identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
