"""Print every benchmark metric with its unit, and measure how steady each is.

usage: python3 perfbench/report.py [--runs K] [--out FILE]

Runs perfbench/run.py K times per workload untraced (seeds 1..K) and once
traced (seed 1), one workload after another for each seed.  For every
metric it prints the median and quartiles over the runs and, for end-to-end
metrics, the spread (q3 - q1) / median next to the bound in BENCHMARK.json.
With --out the runs, the summary and their provenance are written as JSON.

``python3 perfbench/report.py --runs 1`` is the one command
that prints every metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        row = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3}
        if name in bounds:
            row["spread"] = (q3 - q1) / median
            row["bound"] = bounds[name]
        summary[name] = row
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, dict[str, list]] = {w: {"untraced": [], "traced": []} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            for trace in (0, 1) if seed == 1 else (0,):
                result = run_once(spec, w, seed, trace)
                runs[w]["traced" if trace else "untraced"].append(result)
                print(f"{w} seed {seed} trace {trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr)

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        entry = {"runs": runs[w]}
        report["workloads"][w] = entry
        for key in ("untraced", "traced"):
            entry[f"{key}_summary"] = summarize(runs[w][key], bounds)
            print(f"\n{w} ({key}, {len(runs[w][key])} runs)")
            print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
                  f"{'bound':>6s} unit")
            for name, row in entry[f"{key}_summary"].items():
                spread = f"{row['spread']:8.4f} {row['bound']:6.2f}" if "spread" in row else " " * 15
                print(f"  {name:34s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                      f"{spread} {row['unit']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
