#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
print for every (workload, end-to-end metric) the median, the spread and the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --seed 100 [--workloads churn,zoo]

The spread is the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. A metric is
steady when its spread is within its bound (`setup_s` is exempt from the
spread test: it is compared only by median). Every run record, with nproc,
the commit and the workload seed, is appended to `.bench_out/steady.jsonl`.
Run from the root of a checkout; exits 1 if any run fails its correctness
gate or any spread exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed; run k uses seed + k")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    head = commit()
    os.makedirs(".bench_out", exist_ok=True)
    log = open(os.path.join(".bench_out", "steady.jsonl"), "a")
    ok = True
    rows = []
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.seed + k
            command = list(bench["command"]) + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.time()
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary = json.loads(lines[-2]) if len(lines) > 1 else {}
            record = {
                "workload": workload, "seed": seed, "commit": head,
                "nproc": os.cpu_count(), "wall_s": round(time.time() - started, 2),
                "result": result, "failures_by_code": summary.get("failures_by_code"),
                "pinned": summary.get("pinned"), "problems": summary.get("problems"),
            }
            log.write(json.dumps(record) + "\n")
            log.flush()
            if not result["correct"]:
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{summary.get('failures_by_code')} "
                  f"pinned={(summary.get('pinned') or {}).get('failures_by_code')} "
                  f"wall={record['wall_s']}s "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(result["metrics"].items())
                             if n in bounds),
                  flush=True)
        for name, series in sorted(values.items()):
            if name not in bounds or len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            med = statistics.median(series)
            spread = (q3 - q1) / med if med else float("inf")
            steady = name == "setup_s" or spread <= bounds[name]
            ok = ok and steady
            rows.append((workload, name, med, spread, bounds[name], steady))
    print(f"\ncommit {head}  nproc {os.cpu_count()}  seeds {args.seed}..{args.seed + args.runs - 1}")
    print(f"{'workload':8} {'metric':15} {'median':>12} {'spread':>8} {'bound':>6} {'/3':>6}")
    for workload, name, med, spread, bound, steady in rows:
        flag = "" if steady else "  OVER"
        third = "ok" if spread < bound / 3 else "-"
        print(f"{workload:8} {name:15} {med:12.5g} {spread:8.3f} {bound:6.2f} {third:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
