"""Independent correctness oracle.

Everything here is computed from the benchmark's own copies of the
generated inputs with plain float64 numpy; nothing is read back from the
program except the answers under test and the external ids its
``insert`` hands out (recorded in the :class:`Ledger`).

* Dense joint similarity: ``Σ_i w_i² · (q_i · x_i)`` in float64 over the
  modalities the query carries (``w_i²`` are the index's squared
  weights, which are configuration, not an answer).
* Lexical similarity (hybrid queries): BM25 from the raw term counts
  with ``k1 = 1.2``, ``b = 0.75`` and ``idf = ln(1 + (N − df + 0.5) /
  (df + 0.5))``, where ``N``, ``df`` and the average document length are
  taken over every *stored* row — live rows plus rows deleted since the
  last compaction, which still hold postings until a compaction drops
  them.  A hybrid score is ``dense + ω_s² · bm25``.
* Tombstones and filters are applied before ranking; ties are broken by
  external id, ascending.

Exact answers must equal the oracle's top-k up to exact ties (an id may
swap with another whose similarity is equal within :data:`TIE_RTOL`).
Graph and hybrid answers must be sorted best-first, unique, live,
filter-passing, and report each id's oracle similarity within
:data:`APPROX_RTOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BM25_K1 = 1.2
BM25_B = 0.75

#: Relative tolerance (of ``max(1, |sim|)``) on similarities reported by
#: exact paths, and the width within which two similarities count as an
#: exact tie.  Both sides compute in float64; they differ only in
#: summation order (~1e-15 relative).
TIE_RTOL = 1e-9
#: Relative tolerance on similarities reported by graph paths, which
#: score through float32 kernels (observed differences ~1e-7).
APPROX_RTOL = 1e-5


# ----------------------------------------------------------------------
# Filters: one spec, two evaluations (numpy here, repro.Filter there)
# ----------------------------------------------------------------------
def filter_mask(spec: tuple | None, columns: dict[str, np.ndarray]) -> np.ndarray | None:
    """Evaluate a filter spec on the benchmark's own attribute columns.

    Specs: ``("eq", field, value)``, ``("in", field, values)``,
    ``("range", field, low, high)`` and ``("and", spec, spec, ...)``.
    """
    if spec is None:
        return None
    op = spec[0]
    if op == "eq":
        return columns[spec[1]] == spec[2]
    if op == "in":
        return np.isin(columns[spec[1]], np.asarray(spec[2]))
    if op == "range":
        col = columns[spec[1]]
        return (col >= spec[2]) & (col <= spec[3])
    if op == "and":
        out = filter_mask(spec[1], columns)
        for clause in spec[2:]:
            out = out & filter_mask(clause, columns)
        return out
    raise ValueError(f"unknown filter op {op!r}")


def to_repro_filter(spec: tuple | None):
    """The same spec as the program's typed filter DSL."""
    from repro.core.query import And, Eq, In, Range

    if spec is None:
        return None
    op = spec[0]
    if op == "eq":
        return Eq(spec[1], spec[2])
    if op == "in":
        return In(spec[1], spec[2])
    if op == "range":
        return Range(spec[1], spec[2], spec[3])
    if op == "and":
        return And(*(to_repro_filter(c) for c in spec[1:]))
    raise ValueError(f"unknown filter op {op!r}")


# ----------------------------------------------------------------------
# Ledger: which external id holds which generated row, and its status
# ----------------------------------------------------------------------
class Ledger:
    """The benchmark's own record of ids inserted, deleted and stored.

    ``src[e]`` is the generated-input row behind external id ``e``
    (``-1`` if unassigned); ``alive[e]`` is true until ``e`` is deleted;
    ``stored[e]`` stays true after a deletion until the next compaction
    (the rows BM25 statistics are taken over).
    """

    def __init__(self, capacity: int) -> None:
        self.src = np.full(capacity, -1, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.stored = np.zeros(capacity, dtype=bool)

    def _grow(self, size: int) -> None:
        if size <= self.src.size:
            return
        extra = max(size, 2 * self.src.size) - self.src.size
        self.src = np.concatenate([self.src, np.full(extra, -1, np.int64)])
        self.alive = np.concatenate([self.alive, np.zeros(extra, bool)])
        self.stored = np.concatenate([self.stored, np.zeros(extra, bool)])

    def insert(self, ext_ids: np.ndarray, src_rows: np.ndarray) -> None:
        ext_ids = np.asarray(ext_ids, dtype=np.int64)
        src_rows = np.asarray(src_rows, dtype=np.int64)
        if ext_ids.size != src_rows.size:
            raise AssertionError("insert returned the wrong number of ids")
        self._grow(int(ext_ids.max()) + 1)
        if np.any(self.src[ext_ids] >= 0):
            raise AssertionError("insert reused an external id")
        self.src[ext_ids] = src_rows
        self.alive[ext_ids] = True
        self.stored[ext_ids] = True

    def delete(self, ext_ids: np.ndarray) -> None:
        self.alive[np.asarray(ext_ids, dtype=np.int64)] = False

    def compacted(self) -> None:
        """A compaction dropped every deleted row from storage."""
        self.stored &= self.alive

    def active_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive).astype(np.int64)

    def state(self) -> "State":
        return State(self.src.copy(), self.alive.copy(), self.stored.copy())


@dataclass(frozen=True)
class State:
    """A frozen ledger version (one per write epoch)."""

    src: np.ndarray
    alive: np.ndarray
    stored: np.ndarray


# ----------------------------------------------------------------------
# The oracle proper
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One query as the oracle sees it (benchmark-side arrays only)."""

    vectors: list  # per modality: float vector or None
    k: int
    filter: tuple | None = None
    terms: tuple[np.ndarray, np.ndarray] | None = None
    sparse_weight: float = 1.0


class Oracle:
    """Brute-force float64 scorer over generated rows.

    ``dense`` holds one ``(rows, d_i)`` matrix per modality, indexed by
    generated-input row; ``columns`` the attribute columns (same rows);
    ``sparse`` the raw term counts as ``(indptr, indices, data, vocab)``.
    """

    def __init__(
        self,
        dense: list[np.ndarray],
        squared_weights,
        columns: dict[str, np.ndarray] | None = None,
        sparse: tuple | None = None,
    ) -> None:
        self.dense = [np.asarray(m, dtype=np.float64) for m in dense]
        self.w2 = np.asarray(squared_weights, dtype=np.float64)
        self.columns = columns or {}
        if sparse is not None:
            indptr, indices, data, _vocab = sparse
            self._indptr = np.asarray(indptr, dtype=np.int64)
            self._indices = np.asarray(indices, dtype=np.int64)
            self._data = np.asarray(data, dtype=np.float64)
            rows = np.repeat(
                np.arange(self._indptr.size - 1), np.diff(self._indptr)
            )
            self._rows = rows
            self._dl = np.bincount(
                rows, weights=self._data, minlength=self._indptr.size - 1
            )
        # Full-corpus dense scores per query vector list, keyed by id();
        # the list itself is kept alive alongside so the key stays valid.
        self._memo: dict[int, tuple[list, np.ndarray]] = {}

    # -- scores over generated rows ------------------------------------
    def dense_scores(self, vectors: list, rows: np.ndarray) -> np.ndarray:
        hit = self._memo.get(id(vectors))
        if hit is None or hit[0] is not vectors:
            full = np.zeros(self.dense[0].shape[0], dtype=np.float64)
            for i, q in enumerate(vectors):
                if q is None or self.w2[i] == 0.0:
                    continue
                full += self.w2[i] * (
                    self.dense[i] @ np.asarray(q, dtype=np.float64)
                )
            hit = (vectors, full)
            self._memo[id(vectors)] = hit
        return hit[1][rows]

    def bm25_scores(
        self, terms: tuple[np.ndarray, np.ndarray], rows: np.ndarray,
        stored_rows: np.ndarray,
    ) -> np.ndarray:
        """BM25 of *rows* with statistics over *stored_rows*."""
        q_idx, q_val = terms
        stored = np.zeros(self._indptr.size - 1, dtype=bool)
        stored[stored_rows] = True
        n_docs = int(stored.sum())
        total = float(self._dl[stored].sum())
        avgdl = total / n_docs if n_docs > 0 and total > 0.0 else 1.0
        out = np.zeros(rows.size, dtype=np.float64)
        in_stored = stored[self._rows]
        for term, qv in zip(q_idx.tolist(), q_val.tolist()):
            hit = self._indices == term
            df = int(np.count_nonzero(hit & in_stored))
            idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            tf_full = np.zeros(self._indptr.size - 1, dtype=np.float64)
            tf_full[self._rows[hit]] = self._data[hit]
            tf = tf_full[rows]
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * self._dl[rows] / avgdl)
            out += qv * idf * tf * (BM25_K1 + 1.0) / (tf + norm)
        return out

    def scores(self, req: Request, rows: np.ndarray,
               stored_rows: np.ndarray | None = None) -> np.ndarray:
        out = self.dense_scores(req.vectors, rows)
        if req.terms is not None:
            if stored_rows is None:
                stored_rows = rows
            out = out + float(req.sparse_weight) ** 2 * self.bm25_scores(
                req.terms, rows, stored_rows
            )
        return out

    # -- ranked answers over external ids ------------------------------
    def admissible(self, req: Request, state: State) -> np.ndarray:
        """Live external ids passing the request's filter, ascending."""
        ext = np.flatnonzero(state.alive)
        if req.filter is not None:
            mask = filter_mask(req.filter, self.columns)
            ext = ext[mask[state.src[ext]]]
        return ext

    def ranked(self, req: Request, state: State) -> tuple[np.ndarray, np.ndarray]:
        """Every admissible id with its similarity, best first, ties by
        ascending external id."""
        ext = self.admissible(req, state)
        stored_rows = state.src[np.flatnonzero(state.stored)]
        sims = self.scores(req, state.src[ext], stored_rows)
        order = np.lexsort((ext, -sims))
        return ext[order], sims[order]

    def top_k(self, req: Request, state: State) -> tuple[np.ndarray, np.ndarray]:
        ids, sims = self.ranked(req, state)
        return ids[: req.k], sims[: req.k]


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    recall: float | None = None


def _scale(sims: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(sims))


def check_answer(
    oracle: Oracle,
    req: Request,
    state: State,
    ids: np.ndarray,
    sims: np.ndarray,
    exact: bool,
) -> Verdict:
    """Judge one answer against the oracle at ledger *state*.

    Exact answers must be a top-k of the admissible set (exact ties may
    swap); approximate (graph) answers must be well-formed and report
    oracle similarities.  ``recall`` is |answer ∩ oracle top-k| / k'
    with k' = min(k, admissible).
    """
    ids = np.asarray(ids, dtype=np.int64)
    sims = np.asarray(sims, dtype=np.float64)
    all_ids, all_sims = oracle.ranked(req, state)
    k = min(req.k, all_ids.size)
    if ids.size != sims.size:
        return Verdict(False, "ids and similarities differ in length")
    if ids.size > req.k:
        return Verdict(False, f"{ids.size} results for k={req.k}")
    if np.unique(ids).size != ids.size:
        return Verdict(False, "duplicate ids")
    if ids.size > 1 and np.any(np.diff(sims) > 0.0):
        return Verdict(False, "results not sorted best-first")
    lookup = dict(zip(all_ids.tolist(), range(all_ids.size)))
    pos = np.asarray([lookup.get(int(e), -1) for e in ids], dtype=np.int64)
    if np.any(pos < 0):
        bad = int(ids[np.flatnonzero(pos < 0)[0]])
        in_range = 0 <= bad < state.alive.size
        why = ("deleted" if in_range and state.src[bad] >= 0
               and not state.alive[bad] else "not admissible")
        return Verdict(False, f"id {bad} is {why}")
    truth = all_sims[pos]
    tol = (TIE_RTOL if exact else APPROX_RTOL) * _scale(truth)
    if np.any(np.abs(sims - truth) > tol):
        j = int(np.argmax(np.abs(sims - truth) - tol))
        return Verdict(
            False,
            f"id {int(ids[j])} reported {sims[j]!r}, oracle {truth[j]!r}",
        )
    top = set(all_ids[:k].tolist())
    recall = (len(top.intersection(ids.tolist())) / k) if k else 1.0
    if exact:
        if ids.size != k:
            return Verdict(False, f"{ids.size} results, expected {k}")
        if k:
            kth = all_sims[k - 1]
            band = TIE_RTOL * max(1.0, abs(kth))
            # Every returned id must reach the k-th best similarity (up
            # to an exact tie), which forces the set to be a top-k.
            if np.any(truth < kth - band):
                j = int(np.argmin(truth))
                return Verdict(
                    False,
                    f"id {int(ids[j])} (sim {truth[j]!r}) is below the "
                    f"oracle's k-th best {kth!r}",
                    recall,
                )
    elif all_ids.size and ids.size == 0:
        return Verdict(False, "empty answer with admissible objects")
    return Verdict(True, "", recall)
