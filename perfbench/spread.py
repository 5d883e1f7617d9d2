"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload sidecar_churn --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and
third quartile as a share of the median, beside the bound that
BENCHMARK.json fixes for it. The raw results go to
``.perfbench-out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    results = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", f"{seconds:g}", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    out = ROOT / ".perfbench-out" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), "utf-8")
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    worst = 0.0
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 else 0.0
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:16s} {statistics.median(values):12.6g} "
              f"{spread:8.4f} {metric['bound']:6.2f}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
