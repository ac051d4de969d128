"""Run one workload N times and print the spread of every metric.

    python3 perfbench/spread.py --workload serve-mixed --runs 10 --first-seed 1
    python3 perfbench/spread.py --workload serve-mixed --runs 3 --traced

Each run is a fresh ``run.py`` process with the next seed.  For every
metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median, and — for end-to-end metrics — that share against a third
of the metric's bound in ``BENCHMARK.json``.  Failed-operation shares
are listed per run, since they must be identical across runs.

``--traced`` additionally makes one traced run per seed and reports the
tracing overhead: the traced runs' ``trace.query_qps`` against the
untraced runs' ``query_qps``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, share


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = []
    for seed in seeds:
        res = one_run(args.workload, seed, args.seconds, 0)
        results.append(res)
        values = " ".join(f"{name}={m['value']:.4g}"
                          for name, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']} "
              f"({res['failed'] / res['attempted']:.6f}) {values}", flush=True)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"\n{args.workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'bound/3':>8s}")
    for name in bounds:
        vals = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, share = spread(vals)
        flag = "" if name == "setup_s" or share <= bounds[name] / 3 else "  WIDE"
        print(f"{name:22s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{share:8.4f} {bounds[name] / 3:8.4f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share identical across runs: {len(shares) == 1}")
    print(f"all correct: {all(r['correct'] for r in results)}")

    if args.traced:
        traced = [one_run(args.workload, seed, args.seconds, 1)
                  for seed in seeds]
        print(f"\nper-layer ({len(traced)} traced runs): median")
        for m in SPEC["per_layer"]:
            vals = [r["metrics"][m["name"]]["value"] for r in traced]
            print(f"  {m['name']:34s} {statistics.median(vals):12.4f} "
                  f"{m['unit']}")
        plain = statistics.median(
            r["metrics"]["query_qps"]["value"] for r in results)
        with_trace = statistics.median(
            r["metrics"]["trace.query_qps"]["value"] for r in traced)
        print(f"tracing overhead on query_qps: "
              f"{100.0 * (plain - with_trace) / plain:+.2f}% "
              f"({plain:.1f} untraced vs {with_trace:.1f} traced, 1/s)")


if __name__ == "__main__":
    main()
