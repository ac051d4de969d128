"""Tests of the benchmark's own oracle and input generator.

    PYTHONPATH=src python -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from oracle import (  # noqa: E402
    BM25_B,
    BM25_K1,
    Ledger,
    Oracle,
    Request,
    check_answer,
    filter_mask,
)


def _tiny():
    rng = np.random.default_rng(5)
    dense = [rng.standard_normal((12, 4)), rng.standard_normal((12, 3))]
    columns = {"category": np.arange(12) % 3,
               "price": np.linspace(0.0, 110.0, 12)}
    oracle = Oracle(dense, [0.7, 0.3], columns=columns)
    ledger = Ledger(12)
    ledger.insert(np.arange(12), np.arange(12))
    query = [rng.standard_normal(4), rng.standard_normal(3)]
    return dense, oracle, ledger, query


def test_dense_scores_are_the_weighted_sum_of_dot_products():
    dense, oracle, ledger, query = _tiny()
    want = [0.7 * float(dense[0][j] @ query[0]) + 0.3 * float(dense[1][j] @ query[1])
            for j in range(12)]
    got = oracle.dense_scores(query, np.arange(12))
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # A missing modality contributes nothing.
    only = oracle.dense_scores([query[0], None], np.arange(12))
    np.testing.assert_allclose(only, 0.7 * dense[0] @ query[0], rtol=1e-12)


def test_ties_break_by_external_id_and_tombstones_drop_out():
    dense = [np.ones((5, 2))]
    oracle = Oracle(dense, [1.0])
    ledger = Ledger(5)
    ledger.insert(np.array([4, 3, 2, 1, 0]), np.arange(5))
    ledger.delete(np.array([1]))
    ids, sims = oracle.top_k(Request([np.ones(2)], 3), ledger.state())
    assert ids.tolist() == [0, 2, 3]
    assert sims.tolist() == [2.0, 2.0, 2.0]


def test_bm25_matches_the_formula_by_hand():
    # Two documents: doc0 has term 0 twice, doc1 has term 0 once and term 1.
    indptr, indices, data = [0, 1, 3], [0, 0, 1], [2.0, 1.0, 3.0]
    oracle = Oracle([np.zeros((2, 1))], [1.0], sparse=(indptr, indices, data, 2))
    terms = (np.array([0]), np.array([1.0]))
    got = oracle.bm25_scores(terms, np.arange(2), np.arange(2))
    n, df, avgdl = 2, 2, (2.0 + 4.0) / 2
    idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
    want = [idf * tf * (BM25_K1 + 1) / (tf + BM25_K1 * (1 - BM25_B + BM25_B * dl / avgdl))
            for tf, dl in ((2.0, 2.0), (1.0, 4.0))]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    # Statistics follow the stored rows: with doc1 gone, N = df = 1.
    only = oracle.bm25_scores(terms, np.arange(1), np.arange(1))
    idf1 = np.log(1.0 + 0.5 / 1.5)
    np.testing.assert_allclose(
        only, [idf1 * 2.0 * (BM25_K1 + 1) / (2.0 + BM25_K1)], rtol=1e-12)


def test_filters_evaluate_on_the_benchmark_columns():
    columns = {"category": np.array([0, 1, 2, 1]),
               "price": np.array([5.0, 50.0, 70.0, 90.0])}
    spec = ("and", ("in", "category", (1, 2)), ("range", "price", 40.0, 80.0))
    assert filter_mask(spec, columns).tolist() == [False, True, True, False]
    assert filter_mask(("eq", "category", 1), columns).tolist() == [
        False, True, False, True]


def test_exact_check_accepts_the_oracle_answer_and_exact_ties():
    _, oracle, ledger, query = _tiny()
    state = ledger.state()
    req = Request(query, 4)
    ids, sims = oracle.top_k(req, state)
    assert check_answer(oracle, req, state, ids, sims, exact=True).ok
    tie_oracle = Oracle([np.ones((6, 2))], [1.0])
    tie_ledger = Ledger(6)
    tie_ledger.insert(np.arange(6), np.arange(6))
    tie_req = Request([np.ones(2)], 2)
    # ids 4 and 5 tie with the oracle's (0, 1): accepted.
    verdict = check_answer(tie_oracle, tie_req, tie_ledger.state(),
                           np.array([5, 4]), np.array([2.0, 2.0]), exact=True)
    assert verdict.ok


@pytest.mark.parametrize("corruption", [
    "swap_in_worse", "deleted", "wrong_similarity", "unsorted",
    "duplicate", "filtered_out", "too_many",
])
def test_check_rejects_a_corrupted_answer(corruption):
    _, oracle, ledger, query = _tiny()
    ledger.delete(np.array([11]))
    state = ledger.state()
    spec = ("in", "category", (0, 1))
    req = Request(query, 4, filter=spec if corruption == "filtered_out" else None)
    all_ids, all_sims = oracle.ranked(req, state)
    ids, sims = all_ids[:4].copy(), all_sims[:4].copy()
    exact = True
    if corruption == "swap_in_worse":
        ids[-1], sims[-1] = all_ids[5], all_sims[5]
    elif corruption == "deleted":
        ids[-1], sims[-1], exact = 11, sims[-1], False
    elif corruption == "wrong_similarity":
        sims[0] += 1e-3
        exact = False
    elif corruption == "unsorted":
        ids, sims = ids[::-1], sims[::-1]
    elif corruption == "duplicate":
        ids[1], sims[1] = ids[0], sims[0]
    elif corruption == "filtered_out":
        bad = int(np.flatnonzero(~filter_mask(spec, oracle.columns))[0])
        ids[-1], exact = bad, False
    elif corruption == "too_many":
        ids, sims = all_ids[:5], all_sims[:5]
    assert not check_answer(oracle, req, state, ids, sims, exact=exact).ok


def test_program_exact_answer_passes_and_corrupted_copy_fails():
    from repro import MUST, MultiVectorSet, Query, SearchOptions, Weights

    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((300, 8)).astype(np.float32),
            rng.standard_normal((300, 5)).astype(np.float32)]
    # Segmented, as in every workload: its exact path scores in float64.
    must = MUST(MultiVectorSet([m[:250] for m in mats]),
                weights=Weights([0.6, 0.4])).build()
    assert must.insert(MultiVectorSet([m[250:] for m in mats])).tolist() == list(
        range(250, 300))
    oracle = Oracle(mats, must.weights.squared)
    ledger = Ledger(300)
    ledger.insert(np.arange(300), np.arange(300))
    state = ledger.state()
    q = [rng.standard_normal(8).astype(np.float32),
         rng.standard_normal(5).astype(np.float32)]
    from repro.core.multivector import MultiVector

    res = must.query(Query(MultiVector.from_arrays(q)),
                     SearchOptions(k=10, exact=True))
    req = Request(q, 10)
    assert check_answer(oracle, req, state, res.ids, res.similarities, True).ok
    ranked_ids, ranked_sims = oracle.ranked(req, state)
    bad_ids = res.ids.copy()
    bad_sims = res.similarities.copy()
    bad_ids[-1], bad_sims[-1] = ranked_ids[10], ranked_sims[10]
    assert not check_answer(oracle, req, state, bad_ids, bad_sims, True).ok


def test_one_seed_always_yields_identical_inputs():
    from inputs import input_digest, make_inputs

    a, b, c = make_inputs(3), make_inputs(3), make_inputs(4)
    assert input_digest(a) == input_digest(b)
    assert input_digest(a) != input_digest(c)
