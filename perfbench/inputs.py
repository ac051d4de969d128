"""Seeded input generation for every workload.

All corpora come from the repository's own generators:

* :func:`repro.datasets.largescale.make_largescale` (+ its default
  ImageText encoders) gives the dense multi-vector objects — a 128-d
  target modality and a 48-d text modality, as in the paper's
  ImageText corpora — and the query multi-vectors;
* :func:`repro.sparse.synthetic.synthetic_hybrid` gives the integer
  term-count rows of the sparse lexical plane and the lexical query
  terms (its own dense vectors are not used);
* the attribute columns (``category``, ``price``) are drawn here.

The program under test receives only these arrays.  The oracle keeps its
own copies (:class:`Inputs` fields) and never reads them back from the
program.  :func:`input_digest` hashes every array, so a run can check
that one seed always yields identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.datasets.largescale import encode_largescale, make_largescale
from repro.sparse.store import SparseStore
from repro.sparse.synthetic import synthetic_hybrid

#: Make-up of the serving corpora (serve-mixed, direct-query).  ``N_BASE``
#: objects are built into the first sealed segment, ``N_SETUP_STREAM``
#: are streamed in during set-up (two sealed segments of 200 plus a delta
#: of 50), and ``N_POOL`` are held back for the inserts issued while
#: serving.
N_BASE = 1600
N_SETUP_STREAM = 450
N_POOL = 590
N_TOTAL = N_BASE + N_SETUP_STREAM + N_POOL
#: Serving queries and weight-learning anchors drawn with the corpus.
N_QUERIES = 256
N_ANCHORS = 64
#: synthetic_hybrid shape: topics x groups x group size == N_TOTAL.
SPARSE_TOPICS, SPARSE_GROUPS, SPARSE_GROUP_SIZE = 33, 8, 10
CATEGORIES = 8

#: The ``scaled`` collection: near-duplicate clusters, norms x30.  Its
#: inputs do not depend on the workload seed (see README, "known fault").
SCALED_SEED = 7
SCALED_CLUSTERS = 40
SCALED_DUPLICATES = 16
SCALED_NOISE = 1e-4
SCALED_NORM = 30.0
SCALED_BASE = 512
SCALED_SEAL = 64
SCALED_WEIGHTS = (0.6, 0.4)

assert SPARSE_TOPICS * SPARSE_GROUPS * SPARSE_GROUP_SIZE == N_TOTAL


@dataclass
class Inputs:
    """One seed's generated corpus, queries and side columns."""

    seed: int
    dense: list[np.ndarray]  # per modality, (N_TOTAL, d_i) float32
    queries: list[MultiVector]  # N_QUERIES serving queries
    anchors: list[MultiVector]  # N_ANCHORS weight-learning anchors
    anchor_positives: np.ndarray  # corpus row of each anchor's object
    category: np.ndarray  # (N_TOTAL,) int64
    price: np.ndarray  # (N_TOTAL,) float64
    sparse_indptr: np.ndarray  # raw term counts, CSR layout
    sparse_indices: np.ndarray
    sparse_data: np.ndarray
    vocab: int
    query_terms: list[tuple[np.ndarray, np.ndarray]]  # per query

    @property
    def n(self) -> int:
        return int(self.dense[0].shape[0])

    def sparse_store(self, rows: np.ndarray) -> SparseStore:
        """The program-side BM25 plane for corpus rows *rows*."""
        import scipy.sparse as sp

        csr = sp.csr_matrix(
            (self.sparse_data, self.sparse_indices, self.sparse_indptr),
            shape=(self.n, self.vocab),
        )
        return SparseStore(csr[np.asarray(rows)], metric="bm25")

    def objects(self, rows: np.ndarray) -> MultiVectorSet:
        """Corpus rows *rows* as a MultiVectorSet carrying attributes and
        the sparse plane (what the program is given)."""
        rows = np.asarray(rows, dtype=np.int64)
        return MultiVectorSet(
            [m[rows] for m in self.dense],
            attributes={
                "category": self.category[rows],
                "price": self.price[rows],
            },
            sparse=self.sparse_store(rows),
        )


def make_inputs(seed: int) -> Inputs:
    """Generate one seed's inputs (deterministic in *seed*)."""
    sem = make_largescale(
        "image",
        n=N_TOTAL,
        num_queries=N_QUERIES + N_ANCHORS,
        seed=seed,
    )
    enc = encode_largescale(sem, seed=seed)
    dense = [np.ascontiguousarray(m, dtype=np.float32)
             for m in enc.objects.matrices]
    queries = list(enc.queries)
    hybrid = synthetic_hybrid(
        n_topics=SPARSE_TOPICS,
        groups_per_topic=SPARSE_GROUPS,
        group_size=SPARSE_GROUP_SIZE,
        num_queries=N_QUERIES,
        seed=seed,
    )
    csr = hybrid.sparse.csr
    rng = np.random.default_rng([seed, 0xA77])
    # Shuffle the plane's rows so lexical groups do not line up with the
    # dense clusters' row order (the generators are independent).
    perm = rng.permutation(N_TOTAL)
    csr = csr[perm]
    category = rng.integers(0, CATEGORIES, size=N_TOTAL).astype(np.int64)
    price = np.round(rng.uniform(0.0, 100.0, size=N_TOTAL), 2)
    anchors = queries[N_QUERIES:]
    positives = np.asarray(
        [int(g[0]) for g in enc.ground_truth[N_QUERIES:]], dtype=np.int64
    )
    return Inputs(
        seed=seed,
        dense=dense,
        queries=queries[:N_QUERIES],
        anchors=anchors,
        anchor_positives=positives,
        category=category,
        price=price,
        sparse_indptr=np.asarray(csr.indptr, dtype=np.int64),
        sparse_indices=np.asarray(csr.indices, dtype=np.int64),
        sparse_data=np.asarray(csr.data, dtype=np.float64),
        vocab=int(csr.shape[1]),
        query_terms=[
            (np.asarray(q.indices, dtype=np.int64),
             np.asarray(q.values, dtype=np.float64))
            for q in hybrid.query_sparse
        ],
    )


@dataclass
class ScaledInputs:
    """The seed-independent ``scaled`` collection."""

    dense: list[np.ndarray]
    queries: list[MultiVector]
    weights: tuple[float, float]

    @property
    def n(self) -> int:
        return int(self.dense[0].shape[0])


def make_scaled_inputs() -> ScaledInputs:
    """Near-duplicate clusters around ImageText objects, norms x30.

    Each of ``SCALED_CLUSTERS`` unit objects is copied
    ``SCALED_DUPLICATES`` times with ``SCALED_NOISE`` jitter, then every
    vector (corpus and query) is scaled to norm ``SCALED_NORM``.  The
    queries are the cluster centres, so each top-10 cut-off falls
    between near-tied cluster members.
    """
    sem = make_largescale(
        "image", n=SCALED_CLUSTERS, num_queries=1,
        num_clusters=SCALED_CLUSTERS // 2, seed=SCALED_SEED,
    )
    enc = encode_largescale(sem, seed=SCALED_SEED)
    rng = np.random.default_rng(SCALED_SEED)
    dense, centres = [], []
    for mat in enc.objects.matrices:
        c = mat.astype(np.float64)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        rep = np.repeat(c, SCALED_DUPLICATES, axis=0)
        rep += SCALED_NOISE * rng.standard_normal(rep.shape)
        rep /= np.linalg.norm(rep, axis=1, keepdims=True)
        dense.append((SCALED_NORM * rep).astype(np.float32))
        centres.append((SCALED_NORM * c).astype(np.float32))
    queries = [
        MultiVector.from_arrays([centres[0][j], centres[1][j]])
        for j in range(SCALED_CLUSTERS)
    ]
    return ScaledInputs(dense=dense, queries=queries, weights=SCALED_WEIGHTS)


def input_digest(inputs: Inputs, scaled: ScaledInputs | None = None) -> str:
    """SHA-256 over every generated array (corpus, queries, columns)."""
    h = hashlib.sha256()

    def add(arr: np.ndarray | None) -> None:
        if arr is None:
            h.update(b"none")
            return
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())

    for m in inputs.dense:
        add(m)
    for q in inputs.queries + inputs.anchors:
        for v in q.vectors:
            add(v)
    for arr in (inputs.anchor_positives, inputs.category, inputs.price,
                inputs.sparse_indptr, inputs.sparse_indices,
                inputs.sparse_data):
        add(arr)
    for idx, val in inputs.query_terms:
        add(idx)
        add(val)
    if scaled is not None:
        for m in scaled.dense:
            add(m)
        for q in scaled.queries:
            for v in q.vectors:
                add(v)
    return h.hexdigest()
