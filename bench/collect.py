"""Run the benchmark on several seeds per workload and record one trajectory point.

Usage, from the repository root:

    python3 bench/collect.py --label 0 --commit <sha>

Writes ``bench/results/BENCH_<label>.json``.  For each workload of
``BENCHMARK.json`` it records:
- every end-to-end run on seeds 1 to 10, plus each metric's median, quartiles
  and spread, where spread = (q3 - q1) / median as
  ``statistics.quantiles(values, n=4)`` gives them;
- the same summary of each run's speed factor and of its times before the
  speed adjustment (``raw_*``);
- one traced run, on the first seed.
Runs are sequential, so they never compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(line for line in lines if line.startswith("machine "))
    result["machine"] = json.loads(machine.split(" ", 1)[1])
    words = next(line for line in lines if line.startswith("workload ")).split()
    result["speed"] = {name: {"value": float(value), "unit": "s" if name.endswith("_s") else
                              "ms" if name.endswith("_ms") else "ratio"}
                       for name, value in zip(words[::2], words[1::2])
                       if name.startswith("raw_") or name == "speed_factor"}
    return result


def summarize(runs: list[dict], key: str = "metrics") -> dict:
    summary = {}
    for name in runs[0][key]:
        values = [run[key][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0][key][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--commit", default="", help="commit the numbers belong to")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    point = {"label": args.label, "commit": args.commit, "run_seconds": seconds,
             "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(workload, seed, seconds, 0)
            machine = run.pop("machine")
            point.setdefault("machine", {k: v for k, v in machine.items() if k != "seed"})
            runs.append({"seed": seed, **run})
            print(workload, seed, json.dumps(run["metrics"]), flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        traced.pop("machine")
        traced.pop("speed")
        point["workloads"][workload] = {
            "end_to_end": summarize(runs),
            "speed": summarize(runs, "speed"),
            "runs": runs,
            "traced": {"seed": SEEDS[0], **traced},
        }
        recorded = point["workloads"][workload]
        for name, entry in {**recorded["end_to_end"], **recorded["speed"]}.items():
            print(f"  {workload:18s} {name:16s} median {entry['median']:.6g} {entry['unit']} "
                  f"spread {entry['spread']:.4f}", flush=True)
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
