"""Run every workload over ten seeds and summarise the spread.

    python3 perfbench/suite.py [--out FILE]

Run from the root of a source checkout. Reads BENCHMARK.json for the
command, the workloads, the run length and the bounds, runs the command
untraced once per seed (SEEDS) and workload plus one traced run per workload
(the first seed, the CLI's default), and prints the median, quartiles and
spread (interquartile range over the median) of every metric the untraced
runs print, next to its bound where BENCHMARK.json sets one, then every
per-layer metric of the traced run. ``--out`` writes all of it, with the
machine, as JSON.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = (1337, 1, 2, 3, 4, 5, 6, 7, 8, 9)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *spec["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    machine = next((json.loads(line[9:]) for line in lines if line.startswith("machine: ")), None)
    printed = {}
    for line in lines:
        m = re.match(r"^([\w.]+) = (\S+) (\S+)", line)
        if m:
            printed[m[1]] = {"value": float(m[2]), "unit": m[3]}
    return {"seed": seed, "machine": machine, "printed": printed, **result}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    record = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, name, seed, 0))
            print(f"{name} seed {seed}: failed {runs[-1]['failed']}/{runs[-1]['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        record["machine"] = runs[0]["machine"]
        entry = {"runs": runs, "summary": {}}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, jobs_failed_ratio = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} jobs), correct = {all(r['correct'] for r in runs)}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, first in runs[0]["printed"].items():
            values = [r["printed"][metric]["value"] for r in runs]
            stats = spread(values)
            bound = bounds.get(metric)
            entry["summary"][metric] = {**stats, "unit": first["unit"], "bound": bound}
            extra = ""
            if stats["spread"] is not None:  # None for a median of 0 (jobs_failed_ratio)
                flag = "unbounded" if bound is None else "ok" if stats["spread"] < bound / 3 else "WIDE"
                extra = (f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}"
                         f"  bound {bound}  [{flag}]")
            print(f"  {metric:17s} median {stats['median']:.6g} {first['unit']}{extra}")
        traced = run_once(spec, name, SEEDS[0], 1)
        entry["traced"] = traced
        print(f"  traced run (seed {SEEDS[0]}), failed {traced['failed']}/{traced['attempted']}:")
        for metric in spec["per_layer"]:
            value = traced["metrics"][metric["name"]]["value"]
            print(f"    {metric['name']:36s} {value:14.6g} {metric['unit']}")
        record["workloads"][name] = entry
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
