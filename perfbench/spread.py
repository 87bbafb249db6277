#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each metric's median and spread.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed0 100]
                                [--record perfbench/trajectory.jsonl]

With `--runs 1 --workloads load-standard,explore-wide,explore-smp,fleet-wcet`
this is the one command that prints every end-to-end metric, by name and
unit, for every workload it applies to.

Runs the command from BENCHMARK.json `--runs` times per workload (by
default the workloads BENCHMARK.json lists), each
with another seed (seed0, seed0+1, ...), from the repository root. For every
metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
flagging a spread at or above a third of the metric's bound; the named
end-to-end table of each run's record (`named.*`) is summarised too. With
`--record`, it appends one JSON line with the quartiles and the run's
provenance (commit, host CPUs, command) to the given file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--record", default="")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "host_cpus": os.cpu_count(),
        "pool_workers": None,
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": [a.seed0 + i for i in range(a.runs)],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    ok = True
    for name in names:
        values, units = {}, {}
        for i in range(a.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(a.seed0 + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            try:
                res = json.loads(last)
            except json.JSONDecodeError:
                print(f"{name} run {i}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
                return 1
            if not res["correct"] or out.returncode != 0:
                print(f"{name} run {i}: INCORRECT\n{out.stdout[-3000:]}")
                ok = False
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
            record = os.path.join(ROOT, "perfbench", "results", f"{name}-seed{a.seed0 + i}-trace0.json")
            with open(record) as f:
                rec = json.load(f)
                entry["pool_workers"] = rec["provenance"]["pool_workers"]
                for k, v in rec["named"].items():
                    values.setdefault("named." + k, []).append(v["value"])
                    units["named." + k] = v["unit"]
        rows = {}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(v), "unit": units[k]}
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and spread >= bound / 3:
                flag = f"  <-- spread >= bound/3 ({bound / 3:.4f})"
                ok = False
            print(f"{name:14} {k:28} {units[k]:10} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:.4f}{flag}")
        entry["workloads"][name] = rows
        sys.stdout.flush()
    if a.record:
        with open(os.path.join(ROOT, a.record), "a") as f:
            f.write(json.dumps(entry) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
