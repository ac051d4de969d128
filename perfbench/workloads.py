"""The three workloads.

Each workload function takes ``(seed, seconds, tracer, workdir)`` and
returns a :class:`Outcome`: operations attempted and failed in the
measured phase, correctness problems found by the oracle, the raw
timings the end-to-end metrics are computed from, and the per-layer
counters.  Everything runs on one thread of this process (the service
adds its own dispatcher thread).
"""

from __future__ import annotations

import shutil
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (
    N_BASE,
    N_POOL,
    N_SETUP_STREAM,
    SCALED_BASE,
    SCALED_SEAL,
    ScaledInputs,
    input_digest,
    make_inputs,
    make_scaled_inputs,
)
from oracle import Ledger, Oracle, Request, State, check_answer, to_repro_filter
from repro import MUST, MultiVectorSet, Query, SearchOptions, Weights
from repro.index.segments import SegmentPolicy
from repro.service import CollectionManager, ServiceConfig, ServiceStats
from spans import Tracer

K = 10
L_GRAPH = 64
REFINE = 4
#: Closed-loop window: requests kept in flight by the load thread.
WINDOW = 16
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: save_index + from_saved repetitions per set-up or round (the
#: per-layer utils.io.save_s / load_s are medians over them).
PERSIST_REPEATS = 9
#: Served schedule: one round is 400 request slots.
ROUND = 400
#: One ``scaled`` exact request every 10 slots: each round queries every
#: one of the 40 scaled cluster centres once.
SCALED_EVERY = 10
#: Shares of the other 360 slots.
MIX = {"graph": 132, "exact": 90, "filtered": 78, "hybrid": 60}
#: Writes at fixed slots of every round: (slot, op, count).
WRITES = ((40, "insert", 4), (140, "delete", 2),
          (240, "insert", 4), (340, "delete", 2))
WARMUP_REQUESTS = 96
SETUP_CHUNK = 50
SETUP_DELETES = 40
SERVE_POLICY = dict(seal_size=200, max_segments=8)
#: Direct-query cycle: (kind, count) per round of 256 calls, each on a
#: query drawn from the pool (long enough that the cycle's cost does not
#: hinge on a few queries).  Plain graph calls are half of the cycle and
#: the cheaper exact calls a fifth, so the median call is a graph call.
DIRECT_MIX = (("graph", 128), ("refine", 24), ("exact", 40),
              ("filtered_graph", 24), ("filtered_exact", 8),
              ("hybrid_graph", 24), ("hybrid_exact", 8))
#: Ingest lifecycle make-up.
INGEST_BASE = 800
INGEST_STREAM = 400
INGEST_CHUNK = 40
INGEST_POLICY = dict(seal_size=100, max_segments=3)
INGEST_DELETE_FRACTION = 0.1
#: The verification pass uses dense graph search with ``refine=`` only:
#: exact and hybrid queries on a segmented int8 index score with the
#: int8 codes (see the README's "Known faults"), and their failures
#: depend on the seed, so they cannot be kept as counted failures.
INGEST_VERIFY = (("refine", 36), ("filtered_refine", 20))
FIT_EPOCHS = 60


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer counters gathered outside the tracer (service stats etc.)
    layer: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def _median(xs) -> float:
    xs = list(xs)
    return float(np.median(xs)) if xs else float("nan")


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Requests: one benchmark-side description, two renderings
# ----------------------------------------------------------------------
@dataclass
class Spec:
    """One planned request: which query, which path, which filter."""

    kind: str  # graph/exact/filtered/hybrid/scaled/refine/... (see mixes)
    q: int  # query index in the pool
    exact: bool
    filter: tuple | None = None
    hybrid: bool = False
    refine: int | None = None
    rng: int = 0


def _filter_for(rng: np.random.Generator, pos: int) -> tuple:
    """A filter of 25-40% selectivity on the benchmark's columns; the
    shape cycles with the slot so every seed gets the same shape mix."""
    shape = pos % 3
    if shape == 0:
        return ("in", "category", tuple(int(c) for c in
                                         rng.choice(8, size=2, replace=False)))
    lo = float(np.round(rng.uniform(0, 60), 2))
    if shape == 1:
        return ("range", "price", lo, lo + 40.0)
    return ("and", ("range", "price", lo, lo + 70.0),
            ("in", "category", tuple(int(c) for c in
                                     rng.choice(8, size=4, replace=False))))


def _spec(kind: str, q: int, rng: np.random.Generator, pos: int) -> Spec:
    """Kinds are ``[filtered_|hybrid_]{graph,exact,refine}`` or ``scaled``."""
    exact = kind == "scaled" or kind.endswith("exact")
    filt = _filter_for(rng, pos) if kind.startswith("filtered") else None
    return Spec(kind=kind, q=q, exact=exact, filter=filt,
                hybrid=kind.startswith("hybrid"),
                refine=REFINE if kind.endswith("refine") else None, rng=pos)


def served_schedule(seed: int, n_queries: int, n_scaled: int) -> list[Spec]:
    """One round of served requests (identical every round)."""
    rng = np.random.default_rng([seed, 0x5E7])
    labels = [kind for kind, count in MIX.items() for _ in range(count)]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    out, it, scaled = [], iter(labels), 0
    for pos in range(ROUND):
        if pos % SCALED_EVERY == SCALED_EVERY // 2:
            out.append(_spec("scaled", scaled % n_scaled, rng, pos))
            scaled += 1
            continue
        kind = next(it)
        if kind == "filtered":  # half graph, half exact
            kind = "filtered_graph" if pos % 2 else "filtered_exact"
        elif kind == "hybrid":
            kind = "hybrid_graph"
        out.append(_spec(kind, int(rng.integers(n_queries)), rng, pos))
    assert scaled == n_scaled, "every round must carry every scaled query"
    return out


def cycle_schedule(seed: int, mix, n_queries: int, salt: int) -> list[Spec]:
    rng = np.random.default_rng([seed, salt])
    labels = [kind for kind, count in mix for _ in range(count)]
    labels = [labels[i] for i in rng.permutation(len(labels))]
    return [_spec(kind, int(rng.integers(n_queries)), rng, pos)
            for pos, kind in enumerate(labels)]


class Renderer:
    """Turns a :class:`Spec` into the program's typed request and the
    oracle's :class:`Request`."""

    def __init__(self, inputs, scaled: ScaledInputs | None) -> None:
        self.inputs = inputs
        self.scaled = scaled
        self._typed: dict[tuple, tuple] = {}

    def render(self, spec: Spec, served: bool) -> tuple[Query, SearchOptions, Request]:
        key = (spec.kind, spec.q, spec.filter, spec.rng, served)
        hit = self._typed.get(key)
        if hit is not None:
            return hit
        if spec.kind == "scaled":
            mv = self.scaled.queries[spec.q]
            query = Query(mv)
            opts = SearchOptions(k=K, exact=True, collection="scaled")
            req = Request(list(mv.vectors), K)
        else:
            mv = self.inputs.queries[spec.q]
            terms = self.inputs.query_terms[spec.q] if spec.hybrid else None
            query = Query(mv, filter=to_repro_filter(spec.filter),
                          sparse=terms, sparse_weight=1.0)
            graph_engine = "wave" if served and not spec.hybrid else "auto"
            opts = (SearchOptions(k=K, exact=True) if spec.exact else
                    SearchOptions(k=K, l=L_GRAPH, refine=spec.refine,
                                  engine=graph_engine, rng=spec.rng))
            req = Request(list(mv.vectors), K, filter=spec.filter,
                          terms=terms, sparse_weight=1.0)
        self._typed[key] = (query, opts, req)
        return query, opts, req


def _span_name(spec: Spec, served: bool) -> str:
    """Which layer a request's span is attributed to."""
    if served:
        group = {"graph": "graph", "exact": "exact", "scaled": "scaled",
                 "filtered_graph": "filtered", "filtered_exact": "filtered",
                 "hybrid_graph": "hybrid"}[spec.kind]
        return f"service.request.{group}"
    if spec.filter is not None:
        return "core.query.filtered"
    if spec.hybrid:
        return "sparse.hybrid"
    if spec.refine is not None:
        return "index.scoring.refine"
    return "index.flat.exact" if spec.exact else "index.search.graph"


def _record_stats(tracer: Tracer, spec: Spec, stats) -> None:
    tracer.count("search.segments_probed", stats.segments_probed)
    if not spec.exact:
        tracer.count("search.visited", stats.visited_vertices)
        tracer.count("search.joint_evals", stats.joint_evals)
        tracer.count("search.modality_evals", stats.modality_evals)
    if spec.refine is not None:
        tracer.count("search.reranked", stats.reranked)


# ----------------------------------------------------------------------
# Set-up shared by serve-mixed and direct-query
# ----------------------------------------------------------------------
@dataclass
class Served:
    inputs: object
    oracle: Oracle
    ledger: Ledger
    must: MUST
    scaled: ScaledInputs | None = None
    scaled_must: MUST | None = None
    scaled_oracle: Oracle | None = None
    scaled_state: State | None = None
    build_s: float = 0.0
    insert_s: float = 0.0
    saved_mb: float = 0.0
    digest: str = ""


def _timed_insert(tracer: Tracer, must: MUST, objects) -> tuple[np.ndarray, float]:
    """``MUST.insert``; its span is named after whether it sealed."""
    before = must.segments.describe() if must.is_segmented else None
    token = tracer.open("index.segments.insert")
    ids = must.insert(objects)
    after = must.segments.describe()
    seals = after["seals"] - (before["seals"] if before else 0)
    comps = after["compactions"] - (before["compactions"] if before else 0)
    secs = tracer.close(token, "index.segments.seal_insert" if seals else None)
    tracer.count("segments.seals", seals)
    tracer.count("segments.auto_compactions", comps)
    return ids, secs


def fit_weights(tracer: Tracer, inputs, must: MUST) -> None:
    """Learn and install weights from the anchors whose object is in
    *must*'s corpus."""
    keep = inputs.anchor_positives < must.objects.n
    tracer.call(
        "weightlearn.fit", must.fit_weights,
        [a for a, k in zip(inputs.anchors, keep) if k],
        inputs.anchor_positives[keep],
        epochs=FIT_EPOCHS, seed=0,
    )


def setup_served(seed: int, tracer: Tracer, workdir: Path,
                 with_scaled: bool) -> Served:
    """Generate inputs, learn weights, build, stream, delete, save, load."""
    inputs = make_inputs(seed)
    scaled = make_scaled_inputs() if with_scaled else None
    digest = input_digest(inputs, scaled)
    base = np.arange(N_BASE)
    must = MUST(inputs.objects(base),
                segment_policy=SegmentPolicy(**SERVE_POLICY))
    fit_weights(tracer, inputs, must)
    _, build_s = tracer.call("index.pipeline.build", must.build)
    ledger = Ledger(N_BASE + N_SETUP_STREAM + N_POOL)
    ledger.insert(base, base)
    insert_s = 0.0
    for lo in range(N_BASE, N_BASE + N_SETUP_STREAM, SETUP_CHUNK):
        rows = np.arange(lo, lo + SETUP_CHUNK)
        ids, secs = _timed_insert(tracer, must, inputs.objects(rows))
        ledger.insert(ids, rows)
        insert_s += secs
    rng = np.random.default_rng([seed, 0xDE1])
    doomed = rng.choice(N_BASE + N_SETUP_STREAM, size=SETUP_DELETES,
                        replace=False)
    tracer.call("index.segments.mark_deleted", must.mark_deleted, doomed)
    ledger.delete(doomed)
    loaded = _persist(tracer, must, workdir / "index")
    oracle = Oracle(
        inputs.dense, loaded.weights.squared,
        columns={"category": inputs.category, "price": inputs.price},
        sparse=(inputs.sparse_indptr, inputs.sparse_indices,
                inputs.sparse_data, inputs.vocab),
    )
    out = Served(inputs=inputs, oracle=oracle, ledger=ledger, must=loaded,
                 build_s=build_s, insert_s=insert_s,
                 saved_mb=_dir_mb(workdir / "index"),
                 digest=digest)
    if scaled is not None:
        smust = MUST(MultiVectorSet([m[:SCALED_BASE] for m in scaled.dense]),
                     weights=Weights(list(scaled.weights)),
                     segment_policy=SegmentPolicy(seal_size=SCALED_SEAL))
        tracer.call("service.collections.scaled_build", smust.build)
        smust.insert(MultiVectorSet([m[SCALED_BASE:] for m in scaled.dense]))
        out.scaled, out.scaled_must = scaled, smust
        out.scaled_oracle = Oracle(scaled.dense, smust.weights.squared)
        everything = Ledger(scaled.n)
        everything.insert(np.arange(scaled.n), np.arange(scaled.n))
        out.scaled_state = everything.state()
    return out


def _persist(tracer: Tracer, must: MUST, path: Path) -> MUST:
    """``save_index`` + ``from_saved``, PERSIST_REPEATS times (each into
    a fresh directory, each call a span); returns the last reload."""
    loaded = None
    for _ in range(PERSIST_REPEATS):
        shutil.rmtree(path, ignore_errors=True)
        tracer.call("utils.io.save", must.save_index, path)
        loaded, _ = tracer.call("utils.io.load", MUST.from_saved, path)
    return loaded


def _repeat_setup(tracer: Tracer, make, teardown) -> tuple[object, list[float]]:
    """Run the whole set-up SETUPS times; keep the last, time each."""
    times, kept = [], None
    for _ in range(SETUPS):
        if kept is not None:
            teardown(kept)
        token = tracer.open("phase.setup")
        kept = make()
        times.append(tracer.close(token))
    return kept, times


def _check_digests(digests: list[str], out: Outcome) -> None:
    if len(set(digests)) != 1:
        out.problems.append("one seed produced different inputs")
    out.digest = digests[-1]


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------
def _judge(srv: Served, spec: Spec, req: Request, states, result) -> tuple[bool, float | None, str]:
    """Check one answer against every ledger state it may have seen."""
    if spec.kind == "scaled":
        oracle, states = srv.scaled_oracle, [srv.scaled_state]
    else:
        oracle = srv.oracle
    verdict = None
    for state in states:
        verdict = check_answer(oracle, req, state, result.ids,
                               result.similarities, exact=spec.exact)
        if verdict.ok:
            break
    return verdict.ok, verdict.recall, verdict.reason


def _verify_final(srv: Served, out: Outcome, search, label: str,
                  n_queries: int, seed: int) -> None:
    """Exact, filtered and hybrid exact answers at the final state."""
    state = srv.ledger.state()
    specs = cycle_schedule(seed, (("exact", 8), ("filtered_exact", 8),
                                  ("hybrid_exact", 8), ("graph", 8)),
                           n_queries, salt=0xF1A)
    renderer = Renderer(srv.inputs, None)
    for spec in specs:
        query, opts, req = renderer.render(spec, served=False)
        res = search(query, opts)
        ok, _, why = _judge(srv, spec, req, [state], res)
        if not ok:
            out.problems.append(f"{label}: {spec.kind} q{spec.q}: {why}")


def _check_active(out: Outcome, label: str, got: np.ndarray, ledger: Ledger) -> None:
    want = ledger.active_ids()
    if not np.array_equal(np.sort(np.asarray(got)), want):
        missing = np.setdiff1d(want, got).size
        extra = np.setdiff1d(got, want).size
        out.problems.append(
            f"{label}: active ids differ from the ledger "
            f"({missing} missing, {extra} unexpected)")


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    spec: Spec
    req: Request
    epoch: int
    start: float
    done: float = 0.0


def _make_service(srv: Served):
    manager = CollectionManager()
    manager.create("default", srv.must)
    manager.create("scaled", srv.scaled_must)
    return manager.serve(
        ServiceConfig(max_batch=32, max_wait_ms=2.0, max_queue=256))


def serve(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Outcome:
    out = Outcome()
    setups: list[Served] = []

    def make():
        srv = setup_served(seed, tracer, workdir, with_scaled=True)
        setups.append(srv)
        token = tracer.open("service.start")
        service = _make_service(srv)
        # The set-up ends with the first answer: the index is serving.
        renderer = Renderer(srv.inputs, srv.scaled)
        q, o, _ = renderer.render(_spec("graph", 0, np.random.default_rng(0), 0), True)
        service.submit(q, o).result()
        tracer.close(token)
        return srv, service

    def teardown(kept):
        kept[1].close()

    (srv, service), setup_times = _repeat_setup(tracer, make, teardown)
    _check_digests([s.digest for s in setups], out)
    try:
        _serve_measured(seed, seconds, tracer, srv, service, out)
    finally:
        service.close()
    out.metrics.update(_setup_metrics(setup_times, setups))
    return out


def _serve_measured(seed, seconds, tracer, srv: Served, service,
                    out: Outcome) -> None:
    inputs = srv.inputs
    renderer = Renderer(inputs, srv.scaled)
    schedule = served_schedule(seed, len(inputs.queries), len(srv.scaled.queries))
    writes = {slot: (op, count) for slot, op, count in WRITES}
    typed = [renderer.render(s, served=True) for s in schedule]
    pool_next = N_BASE + N_SETUP_STREAM
    delete_rng = np.random.default_rng([seed, 0xD31])
    states = [srv.ledger.state()]

    # Warm-up: the first requests of the schedule, untimed and unchecked.
    futs = [service.submit(q, o) for q, o, _ in typed[:WARMUP_REQUESTS]
            if o.collection is None]
    for f in futs:
        f.result()
    service.stats = ServiceStats(service.config.latency_window)
    for col in service.collections:
        col.stats = ServiceStats(service.config.latency_window)

    inflight: dict = {}
    done: list[tuple[_Pending, object]] = []
    last_scaled = None
    write_times: list[float] = []
    phase = tracer.open("phase.measure")
    t_start = time.perf_counter()
    t_end = t_start + seconds
    rounds = 0
    pos = 0

    def harvest(block: bool) -> None:
        if not inflight:
            return
        ready, _ = wait(list(inflight), timeout=None if block else 0,
                        return_when=FIRST_COMPLETED)
        for f in ready:
            rec = inflight.pop(f)
            done.append((rec, f))

    while True:
        if pos == 0 and rounds and time.perf_counter() >= t_end:
            break
        spec = schedule[pos]
        write = writes.get(pos)
        if write is not None:
            op, count = write
            if op == "insert":
                rows = np.arange(pool_next, pool_next + count) % inputs.n
                rows = np.where(rows < N_BASE + N_SETUP_STREAM,
                                rows + N_BASE + N_SETUP_STREAM, rows)
                pool_next += count
                objs = inputs.objects(rows)
                ids, secs = tracer.call("service.write", service.insert, objs)
                srv.ledger.insert(ids, rows)
            else:
                live = srv.ledger.active_ids()
                live = live[live < N_BASE + N_SETUP_STREAM]
                doomed = delete_rng.choice(live, size=count, replace=False)
                _, secs = tracer.call("service.write", service.mark_deleted,
                                      doomed)
                srv.ledger.delete(doomed)
            write_times.append(secs)
            states.append(srv.ledger.state())
            out.attempted += 1
        if spec.kind == "scaled" and last_scaled is not None:
            # At most one scaled request in flight: each of its exact
            # waves then holds exactly one query (see README).
            while last_scaled in inflight:
                harvest(block=True)
        while len(inflight) >= WINDOW:
            harvest(block=True)
        query, opts, req = typed[pos]
        rec = _Pending(spec, req, len(states) - 1, time.perf_counter())
        fut = service.submit(query, opts)
        fut.add_done_callback(lambda _f, r=rec: setattr(r, "done", time.perf_counter()))
        inflight[fut] = rec
        if spec.kind == "scaled":
            last_scaled = fut
        pos += 1
        if pos == ROUND:
            pos, rounds = 0, rounds + 1
        harvest(block=False)
    while inflight:
        harvest(block=True)
    for rec, _ in done:
        # A future's done-callbacks run just after its waiters wake.
        while not rec.done:
            time.sleep(1e-4)
    t_stop = max(rec.done for rec, _ in done)
    tracer.close(phase)

    summary = service.stats.summary()
    latencies, recalls = [], []
    for request_id, (rec, fut) in enumerate(done):
        out.attempted += 1
        latencies.append(rec.done - rec.start)
        tracer.add(_span_name(rec.spec, True), rec.start, rec.done,
                   request=request_id, parent=phase[0])
        try:
            result = fut.result()
        except Exception as exc:  # noqa: BLE001 - reported as a problem
            out.problems.append(f"{rec.spec.kind} raised {exc!r}")
            continue
        _record_stats(tracer, rec.spec, result.stats)
        ok, recall, why = _judge(srv, rec.spec, rec.req,
                                 states[rec.epoch:], result)
        if rec.spec.kind == "scaled":
            if not ok:
                out.failed += 1
            continue
        if not ok:
            out.problems.append(f"{rec.spec.kind} q{rec.spec.q}: {why}")
        elif rec.spec.kind == "graph":
            recalls.append(recall)
    elapsed = t_stop - t_start
    out.metrics.update(_query_metrics(latencies, elapsed, recalls))
    tracer.count("query.qps", len(latencies) / elapsed)
    _service_layer(out, summary, write_times)

    # End of run: compact, then check ids and answers at the final state.
    _, compact_s = tracer.call("index.segments.compact", service.compact)
    srv.ledger.compacted()
    out.metrics["compact_s"] = (compact_s, "s")
    _check_active(out, "after compact", service.active_ids(), srv.ledger)
    _verify_final(srv, out, lambda q, o: service.submit(q, o).result(),
                  "served after compact", len(inputs.queries), seed)
    _memory_metrics(out, tracer, service.must.memory_stats())


def _service_layer(out: Outcome, summary: dict,
                   write_times: list[float]) -> None:
    lat, waitp = summary["latency_ms"], summary["wait_ms"]
    layer = out.layer
    layer["service.service.wait_ms"] = waitp.get("p50", 0.0)
    layer["service.service.wait_p90_ms"] = waitp.get("p90", waitp.get("p95", 0.0))
    layer["service.service.exec_ms"] = lat.get("p50", 0.0) - waitp.get("p50", 0.0)
    cb = summary["coalesced_batches"]
    layer["service.service.batch_size"] = (
        summary["coalesced_requests"] / cb if cb else 1.0)
    layer["service.service.write_ms"] = 1e3 * _median(write_times)
    waves = summary["graph_waves"]
    if waves:
        layer["index.graph_wave.waves"] = (
            sum(w * c for w, c in waves.items()) / sum(waves.values()))
    fronts = summary["wave_frontier_sizes"]
    if fronts:
        layer["index.graph_wave.frontier"] = (
            sum(s * c for s, c in fronts.items()) / sum(fronts.values()))


# ----------------------------------------------------------------------
# direct-query
# ----------------------------------------------------------------------
def direct(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Outcome:
    out = Outcome()
    setups: list[Served] = []

    def make():
        srv = setup_served(seed, tracer, workdir, with_scaled=False)
        setups.append(srv)
        return srv

    srv, setup_times = _repeat_setup(tracer, make, lambda kept: None)
    _check_digests([s.digest for s in setups], out)
    must, inputs = srv.must, srv.inputs
    renderer = Renderer(inputs, None)
    schedule = cycle_schedule(seed, DIRECT_MIX, len(inputs.queries), 0xD1C)
    typed = [renderer.render(s, served=False) for s in schedule]
    state = srv.ledger.state()
    for query, opts, _ in typed[:16]:  # warm-up, untimed
        must.query(query, opts)

    latencies, answers = [], []
    phase = tracer.open("phase.measure")
    t_start = time.perf_counter()
    t_end = t_start + seconds
    pos = 0
    while pos or time.perf_counter() < t_end:
        spec = schedule[pos]
        query, opts, req = typed[pos]
        result, secs = tracer.call(_span_name(spec, False), must.query, query, opts)
        latencies.append(secs)
        answers.append((spec, req, result))
        pos = (pos + 1) % len(schedule)
    elapsed = time.perf_counter() - t_start
    tracer.close(phase)

    recalls = []
    for spec, req, result in answers:
        out.attempted += 1
        _record_stats(tracer, spec, result.stats)
        ok, recall, why = _judge(srv, spec, req, [state], result)
        if not ok:
            out.problems.append(f"{spec.kind} q{spec.q}: {why}")
        elif spec.kind == "graph":
            recalls.append(recall)
    out.metrics.update(_query_metrics(latencies, elapsed, recalls))
    tracer.count("query.qps", len(latencies) / elapsed)

    (_, active), compact_s = tracer.call("index.segments.compact", must.compact)
    srv.ledger.compacted()
    out.metrics["compact_s"] = (compact_s, "s")
    _check_active(out, "after compact", active, srv.ledger)
    _verify_final(srv, out, must.query, "direct after compact",
                  len(inputs.queries), seed)
    _memory_metrics(out, tracer, must.memory_stats())
    out.metrics.update(_setup_metrics(setup_times, setups))
    return out


# ----------------------------------------------------------------------
# ingest-lifecycle
# ----------------------------------------------------------------------
def ingest(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Outcome:
    out = Outcome()
    digests: list[str] = []

    def make():
        inputs = make_inputs(seed)
        digests.append(input_digest(inputs))
        fitter = MUST(inputs.objects(np.arange(INGEST_BASE)))
        fit_weights(tracer, inputs, fitter)
        return inputs, fitter.weights

    (inputs, weights), setup_times = _repeat_setup(tracer, make, lambda kept: None)
    _check_digests(digests, out)
    oracle = Oracle(
        inputs.dense, weights.squared,
        columns={"category": inputs.category, "price": inputs.price},
        sparse=(inputs.sparse_indptr, inputs.sparse_indices,
                inputs.sparse_data, inputs.vocab),
    )
    renderer = Renderer(inputs, None)
    verify = cycle_schedule(seed, INGEST_VERIFY, len(inputs.queries), 0x1A6)
    typed = [renderer.render(s, served=False) for s in verify]

    per_round: dict[str, list[float]] = {k: [] for k in (
        "build", "insert", "compact", "saved", "resident")}
    latencies, recalls, query_time = [], [], 0.0
    t_end = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < t_end:
        rdir = workdir / f"round{rounds % 2}"
        shutil.rmtree(rdir, ignore_errors=True)
        token = tracer.open("phase.round")
        m = _ingest_round(seed, rounds, inputs, weights, oracle, verify,
                          typed, rdir, tracer, out, per_round)
        tracer.close(token)
        latencies += m[0]
        recalls += m[1]
        query_time += sum(m[0])
        rounds += 1
        shutil.rmtree(rdir, ignore_errors=True)

    out.metrics.update(_query_metrics(latencies, query_time, recalls))
    tracer.count("query.qps", len(latencies) / query_time)
    out.metrics["setup_s"] = (_median(setup_times), "s")
    out.metrics["build_obj_per_s"] = (
        INGEST_BASE / _median(per_round["build"]), "1/s")
    out.metrics["insert_obj_per_s"] = (
        INGEST_STREAM / _median(per_round["insert"]), "1/s")
    out.metrics["compact_s"] = (_median(per_round["compact"]), "s")
    out.metrics["saved_mb"] = (_median(per_round["saved"]), "MB")
    out.metrics["resident_mb"] = (_median(per_round["resident"]), "MB")
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return out


def _ingest_round(seed, rnd, inputs, weights, oracle, verify, typed, rdir: Path,
                  tracer: Tracer, out: Outcome, per_round) -> tuple[list, list]:
    ledger = Ledger(INGEST_BASE + INGEST_STREAM)
    base = np.arange(INGEST_BASE)
    must = MUST(inputs.objects(base), weights=weights,
                segment_policy=SegmentPolicy(**INGEST_POLICY),
                compression="int8", cold_storage="mmap",
                data_dir=rdir / "cold")
    _, build_s = tracer.call("index.pipeline.build", must.build)
    out.attempted += 1
    ledger.insert(base, base)
    insert_s = 0.0
    for lo in range(INGEST_BASE, INGEST_BASE + INGEST_STREAM, INGEST_CHUNK):
        rows = np.arange(lo, lo + INGEST_CHUNK)
        ids, secs = _timed_insert(tracer, must, inputs.objects(rows))
        ledger.insert(ids, rows)
        insert_s += secs
        out.attempted += 1
    if not must.segments.describe()["compactions"]:
        out.problems.append("the insert phase triggered no automatic compaction")
    rng = np.random.default_rng([seed, 0x1DE])
    live = ledger.active_ids()
    doomed = rng.choice(live, size=int(INGEST_DELETE_FRACTION * live.size),
                        replace=False)
    tracer.call("index.segments.mark_deleted", must.mark_deleted, doomed)
    ledger.delete(doomed)
    out.attempted += 1
    (_, active), compact_s = tracer.call("index.segments.compact", must.compact)
    ledger.compacted()
    out.attempted += 1
    _check_active(out, "after compact", active, ledger)
    path = rdir / "saved"
    loaded = _persist(tracer, must, path)
    out.attempted += 2 * PERSIST_REPEATS
    _check_active(out, "after from_saved", loaded.segments.active_ext_ids(), ledger)
    per_round["build"].append(build_s)
    per_round["insert"].append(insert_s)
    per_round["compact"].append(compact_s)
    per_round["saved"].append(_dir_mb(path))
    stats = loaded.memory_stats()
    per_round["resident"].append(stats["resident_bytes"] / 2**20)
    tracer.count("store.hot_mb", stats["hot_bytes"] / 2**20)
    tracer.count("store.cold_mb", stats["cold_bytes"] / 2**20)

    state = ledger.state()
    srv = Served(inputs=inputs, oracle=oracle, ledger=ledger, must=loaded)
    latencies, recalls = [], []
    for spec, (query, opts, req) in zip(verify, typed):
        result, secs = tracer.call(_span_name(spec, False), loaded.query, query, opts)
        latencies.append(secs)
        out.attempted += 1
        _record_stats(tracer, spec, result.stats)
        ok, recall, why = _judge(srv, spec, req, [state], result)
        if not ok:
            out.problems.append(f"round {rnd} {spec.kind} q{spec.q}: {why}")
        elif spec.kind == "refine":
            recalls.append(recall)
    return latencies, recalls


# ----------------------------------------------------------------------
# Shared metric assembly
# ----------------------------------------------------------------------
def _query_metrics(latencies: list[float], elapsed: float,
                   recalls: list[float]) -> dict[str, tuple[float, str]]:
    lat_ms = 1e3 * np.asarray(latencies)
    return {
        "query_qps": (len(latencies) / elapsed, "1/s"),
        "query_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "query_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "recall_at_10": (float(np.mean(recalls)) if recalls else 0.0, "frac"),
        "_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "_samples": (float(lat_ms.size), "count"),
    }


def _setup_metrics(setup_times: list[float], setups: list[Served]) -> dict:
    """Medians over the run's set-ups."""
    return {
        "setup_s": (_median(setup_times), "s"),
        "build_obj_per_s": (N_BASE / _median(s.build_s for s in setups), "1/s"),
        "insert_obj_per_s": (
            N_SETUP_STREAM / _median(s.insert_s for s in setups), "1/s"),
        "saved_mb": (_median(s.saved_mb for s in setups), "MB"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _memory_metrics(out: Outcome, tracer: Tracer, stats: dict) -> None:
    out.metrics["resident_mb"] = (stats["resident_bytes"] / 2**20, "MB")
    tracer.count("store.hot_mb", stats["hot_bytes"] / 2**20)
    tracer.count("store.cold_mb", stats["cold_bytes"] / 2**20)


WORKLOADS = {
    "serve-mixed": serve,
    "ingest-lifecycle": ingest,
    "direct-query": direct,
}
