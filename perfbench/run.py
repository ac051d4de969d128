"""MUST benchmark runner.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

One workload per process: ``--workload all`` runs each workload in a
child process of its own (so ``peak_rss_mb`` belongs to that workload)
and prints each child's result line.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics and writes the recorded spans to
``perfbench/traces/<workload>-seed<n>.json``.  The program under test is
imported from ``src/`` next to this directory; without it the runner
exits with an error before measuring anything.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").is_file() else None


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _layer_metrics(tracer, outcome) -> dict[str, float]:
    """Every per-layer metric, from the trace (0 where the workload does
    not call that layer)."""
    import numpy as np

    def med(*names, scale=1.0):
        xs = [d for n in names for d in tracer.durations(n)]
        return scale * float(np.median(xs)) if xs else 0.0

    def mean(name):
        xs = tracer.counts.get(name, [])
        return float(np.mean(xs)) if xs else 0.0

    def per_phase_sum(name):
        # seals/auto-compactions per set-up or per lifecycle round
        xs = tracer.counts.get(name, [])
        phases = (len(tracer.durations("phase.round"))
                  or len(tracer.durations("phase.setup")) or 1)
        return float(np.sum(xs)) / phases if xs else 0.0

    e2e = outcome.metrics
    out = {
        "index.pipeline.build_s": med("index.pipeline.build"),
        "weightlearn.fit_s": med("weightlearn.fit"),
        "index.segments.insert_ms": med("index.segments.insert", scale=1e3),
        "index.segments.seal_insert_ms": med("index.segments.seal_insert",
                                             scale=1e3),
        "index.segments.seals": per_phase_sum("segments.seals"),
        "index.segments.auto_compactions": per_phase_sum(
            "segments.auto_compactions"),
        "index.segments.compact_s": med("index.segments.compact"),
        "index.segments.segments_probed": mean("search.segments_probed"),
        "utils.io.save_s": med("utils.io.save"),
        "utils.io.load_s": med("utils.io.load"),
        "store.hot_mb": mean("store.hot_mb"),
        "store.cold_mb": mean("store.cold_mb"),
        "index.search.graph_ms": med("index.search.graph", scale=1e3),
        "index.search.visited": mean("search.visited"),
        "index.search.joint_evals": mean("search.joint_evals"),
        "index.search.modality_evals": mean("search.modality_evals"),
        "index.graph_wave.waves": outcome.layer.get("index.graph_wave.waves", 0.0),
        "index.graph_wave.frontier": outcome.layer.get(
            "index.graph_wave.frontier", 0.0),
        "index.flat.exact_ms": med("index.flat.exact", scale=1e3),
        "index.scoring.reranked": mean("search.reranked"),
        "core.query.filtered_ms": med("core.query.filtered",
                                      "service.request.filtered", scale=1e3),
        "sparse.hybrid_ms": med("sparse.hybrid", "service.request.hybrid",
                                scale=1e3),
        "service.service.exact_ms": med("service.request.exact", scale=1e3),
        "service.service.graph_ms": med("service.request.graph", scale=1e3),
        "service.collections.scaled_ms": med("service.request.scaled",
                                             scale=1e3),
        "query.p99_ms": e2e["_p99_ms"][0],
        "query.samples": e2e["_samples"][0],
        "trace.query_qps": mean("query.qps"),
        "trace.spans": float(len(tracer.spans)),
    }
    for name in ("service.service.wait_ms", "service.service.wait_p90_ms",
                 "service.service.exec_ms", "service.service.batch_size",
                 "service.service.write_ms"):
        out[name] = float(outcome.layer.get(name, 0.0))
    return out


def run_one(args) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"the program's sources are missing ({SRC / 'repro'})")
    if SPEC is None:
        _fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(enabled=bool(args.trace))
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, float(args.seconds), tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for problem in outcome.problems[:20]:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    if len(outcome.problems) > 20:
        print(f"perfbench: ... {len(outcome.problems) - 20} more",
              file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} inputs "
          f"sha256={outcome.digest}", file=sys.stderr)
    if args.trace:
        layer = _layer_metrics(tracer, outcome)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in units}
        path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds})
        print(f"perfbench: trace written to {path.relative_to(ROOT)}",
              file=sys.stderr)
    else:
        metrics = {}
        for m in SPEC["end_to_end"]:
            value, unit = outcome.metrics[m["name"]]
            assert unit == m["unit"], (m["name"], unit)
            metrics[m["name"]] = {"value": value, "unit": unit}
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def run_all(args) -> None:
    """Each workload in its own child process; print every result."""
    ok = True
    for spec in SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", spec["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{spec['name']}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {spec['name']}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"   {name:34s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"all_correct": ok}))
    if not ok:
        sys.exit(1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None:
        _fail("BENCHMARK.json is missing")
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]
    if args.workload == "all":
        if not (SRC / "repro" / "__init__.py").is_file():
            _fail(f"the program's sources are missing ({SRC / 'repro'})")
        run_all(args)
        return
    result = run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
