"""contentoracle benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk_scan_xattr --seed 1 --seconds 30 --trace 0

Builds a seeded corpus in a scratch directory inside the checkout, runs
one workload for ``--seconds`` seconds, checks every report against the
oracle, and prints the metrics by name with their units. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` it holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run. Exit codes: 0 for a result, 2 for
bad arguments, 3 when the checkout or the environment cannot run the
workload (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EX_REFUSED = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_scan_xattr", "sidecar_churn", "cli_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return EX_REFUSED


def isolate(work: Path) -> None:
    """Point every per-user location at the scratch directory before the
    package is imported (its default sidecar path is fixed at import)."""
    home = work / "home"
    os.environ.update({
        "HOME": str(home),
        "XDG_STATE_HOME": str(home / "state"),
        "XDG_CONFIG_HOME": str(home / "config"),
    })
    os.environ.pop("CONTENTORACLE_CONFIG", None)


def wanted_metrics(trace: bool) -> list[str]:
    spec = json.loads(BENCHMARK.read_text("utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for the benchmark and every process it starts, so that the
    # host-speed probes run where the timed work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "contentoracle" / "__init__.py").is_file():
        return refuse(f"no contentoracle sources under {ROOT / 'src'}; run from a checkout")
    if not BENCHMARK.is_file():
        return refuse(f"missing {BENCHMARK.name}")
    wanted = wanted_metrics(bool(args.trace))

    # a termination request unwinds like an exception, so the scratch
    # directory is still removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    isolate(work)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    run = workloads.Run(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace))
    started = time.perf_counter()
    try:
        workloads.WORKLOADS[args.workload](run)
    except workloads.Refused as exc:
        return refuse(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} wall {time.perf_counter() - started:.1f}s")
    for line in run.info:
        print(line)
    for name, (value, unit) in run.metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':48s} {rate:14.6g} ratio ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"mismatch: {problem}")

    missing = [name for name in wanted if name not in run.metrics]
    values = {name: run.metrics[name] for name in wanted if name in run.metrics}
    if missing or any(not math.isfinite(v) for v, _ in values.values()):
        return refuse(f"workload produced no value for: {', '.join(missing) or 'a metric'}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
