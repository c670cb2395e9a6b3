"""The transport scorers at corpus scale are exact, and so is their LP.

``WmdScorer`` and ``RwmdScorer`` build one bag per sentence object, take
their ground costs from bounded ``_distances`` blocks over the stacked bag
rows, and solve each LP with the transportation simplex of ``lha.metrics``.
The solver's tree is checked as an optimality certificate and against HiGHS
(``linprog``) on seeded and degenerate LPs, and the distance kernel against
scipy's ``cdist``. The scorers are compared bit for bit with the per-cell
path of ``tests/oracles.py``: fresh bags, one ``_distances`` call per cell,
and the same solver.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import lha.metrics
from lha.corpus import Sentence
from lha.embeddings import WordVectorTable
from lha.metrics import (
    _FLOOR_SLACK,
    RwmdScorer,
    WmdScorer,
    _distances,
    _entering,
    _nbow,
    _transport_cost,
    _transport_plan,
    make_scorer,
    rwmd,
    to_similarity,
    wmd,
)
from conftest import doc, sent
from oracles import transport_cost_linprog_oracle, transport_matrix_oracle

_WORDS = [f"q{a}{b}" for a in "abcdef" for b in "xyz"]


def _table(rng: np.random.Generator, dim: int) -> WordVectorTable:
    vectors = {w: rng.normal(size=dim) for w in _WORDS}
    # Three pairs of words share a vector: their ground cost is zero.
    for word, twin in zip(_WORDS[:3], _WORDS[3:6]):
        vectors[twin] = vectors[word].copy()
    return WordVectorTable(dim, vectors)


def _text(rng: np.random.Generator, max_len: int = 8) -> str:
    vocab = _WORDS[: int(rng.integers(2, len(_WORDS) + 1))]
    words = list(rng.choice(vocab, size=int(rng.integers(1, max_len + 1))))
    if rng.random() < 0.3:
        words.append("the")  # a stopword, never in a bag
    if rng.random() < 0.3:
        words.append("xyzzy")  # out of vocabulary
    return " ".join(words) + "."


def _sentences(rng: np.random.Generator, doc_id: str, n: int) -> list[Sentence]:
    """n random sentences, one with no in-vocabulary word, and another
    sentence that reuses the uid of the first."""
    out = [sent(_text(rng), doc_id, i) for i in range(n)]
    out.append(sent("Xyzzy the.", doc_id, n))
    out.append(sent(_text(rng), doc_id, 0))
    return out


def _whole(rng: np.random.Generator, doc_ids: list[str]) -> list[Sentence]:
    """Whole documents as one sentence each, built the way ``lha eval``
    builds them: every one has ordinal 0."""
    docs = [doc(d, [_text(rng) for _ in range(int(rng.integers(1, 4)))]) for d in doc_ids]
    return [Sentence(d.doc_id, 0, "", tuple(d.tokens())) for d in docs]


def _lp(rng: np.random.Generator, m: int, n: int):
    """Weights with repeated values and costs between rows drawn with
    repetition from a small vocabulary, so some costs are zero."""
    vocab = rng.normal(size=(int(rng.integers(2, 16)), int(rng.integers(2, 8))))
    a = rng.integers(1, 4, size=m).astype(np.float64)
    b = rng.integers(1, 4, size=n).astype(np.float64)
    costs = cdist(vocab[rng.integers(0, len(vocab), size=m)],
                  vocab[rng.integers(0, len(vocab), size=n)])
    return a / a.sum(), b / b.sum(), costs


def _degenerate_lp(rng: np.random.Generator, seed: int):
    """Ties everywhere: all-equal weights (square or not), costs from
    {0, 1, 2} or all equal, and weights whose sums differ by 1 ulp."""
    m, n = (int(v) for v in rng.integers(2, 13, size=2))
    kind = seed % 4
    if kind == 0:
        n = m if seed % 8 == 0 else n
        a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    else:
        a = rng.integers(1, 4, size=m).astype(np.float64)
        b = rng.integers(1, 4, size=n).astype(np.float64)
        a, b = a / a.sum(), b / b.sum()
    costs = rng.integers(0, 3, size=(m, n)).astype(np.float64)
    if kind == 2:
        costs[:] = float(seed % 3)
    if kind == 3:
        a[-1] = np.nextafter(a[-1], 2.0 if seed % 8 == 3 else 0.0)
    return a, b, costs


def _certify(a: np.ndarray, b: np.ndarray, costs: np.ndarray) -> None:
    """The solver's tree is an optimal basis: a spanning tree of rows and
    columns, its flows non-negative with the weights as row and column
    sums, no reduced cost below -tol, and flow only on cells whose reduced
    cost is zero within tol. It is also strongly feasible: a zero-flow cell
    joins a row to its parent column."""
    m, n = costs.shape
    parent, flow, potential = _transport_plan(a, b, costs)
    assert [v for v, p in enumerate(parent) if p < 0] == [m]
    x = np.zeros((m, n))
    for v, p in enumerate(parent):
        if p < 0:
            continue
        assert (v < m) != (p < m)
        i, j = (v, p - m) if v < m else (p, v - m)
        x[i, j] = flow[v]
        assert flow[v] > 0.0 or v < m
        u, steps = v, 0
        while parent[u] >= 0:
            u, steps = parent[u], steps + 1
            assert steps < m + n
    assert (x >= 0.0).all()
    np.testing.assert_allclose(x.sum(axis=1), a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x.sum(axis=0), b, rtol=0, atol=1e-15)
    pot = np.array(potential)
    reduced = costs - pot[:m, None] + pot[m:]
    tol = lha.metrics._TOLERANCE * costs.max()
    assert reduced.min() >= -tol
    assert (np.abs(reduced[x > 0.0]) <= tol).all()


@pytest.mark.parametrize("chunk", range(6))
def test_lp_is_optimal_and_agrees_with_linprog(chunk) -> None:
    """Chunks 0-3 hold the 1,200 seeded LPs, 4-5 600 degenerate ones."""
    zero_costs = 0
    for seed in range(300 * chunk, 300 * (chunk + 1)):
        rng = np.random.default_rng(seed)
        if chunk >= 4:
            a, b, costs = _degenerate_lp(rng, seed)
        else:
            m, n = (int(v) for v in rng.integers(2, 13, size=2))
            if seed % 10 == 0:
                m = 1
            elif seed % 10 == 1:
                n = 1
            a, b, costs = _lp(rng, m, n)
        zero_costs += bool((costs == 0.0).any())
        _certify(a, b, costs)
        got = _transport_cost(a, b, costs)
        expected = transport_cost_linprog_oracle(a, b, costs)
        if 1 in costs.shape:
            assert got.hex() == expected.hex(), seed
        else:
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-15), seed
    assert zero_costs > 30


def test_entering_cell_is_the_first_most_negative() -> None:
    reduced = np.array([[0.0, -2.0, 1.0], [-2.0, -1.0, -2.0]])
    assert _entering(reduced, 1e-12) == 1
    assert _entering(np.array([[0.0, -1.0, 1.0], [-2.0, 0.0, -2.0]]), 1e-12) == 3
    assert _entering(np.array([[0.0, -1e-12], [3.0, -1e-12]]), 1e-12) is None
    assert _entering(np.array([[0.0, -2e-12], [3.0, -2e-12]]), 1e-12) == 1


def test_every_pivot_enters_by_the_fixed_rule(monkeypatch) -> None:
    """A spy on the pricing step: each entering cell is the first most
    negative reduced cost in row-major order, ties included."""
    seen = []

    def recording(reduced, tol):
        k = _entering(reduced, tol)
        low = np.flatnonzero(reduced == reduced.min())
        seen.append(len(low))
        assert k == (low[0] if reduced.flat[low[0]] < -tol else None)
        return k

    monkeypatch.setattr(lha.metrics, "_entering", recording)
    for seed in range(200):
        _certify(*_degenerate_lp(np.random.default_rng(seed), seed))
    assert max(seen) > 1 and len(seen) > 400


def test_the_pivot_cap_raises(monkeypatch) -> None:
    calls = []
    real = lha.metrics._entering
    monkeypatch.setattr(lha.metrics, "_entering",
                        lambda reduced, tol: calls.append(1) or real(reduced, tol))
    rng = np.random.default_rng(4)
    a, b, costs = _lp(rng, 9, 11)
    _transport_cost(a, b, costs)
    assert len(calls) > 1  # this LP needs a pivot
    monkeypatch.setattr(lha.metrics, "_PIVOTS_PER_LINE", 0)
    with pytest.raises(RuntimeError, match="not solved in 0 pivots"):
        _transport_cost(a, b, costs)
    with pytest.raises(RuntimeError, match="not solved"):
        WmdScorer(_table(rng, 3)).matrix(
            [sent("qax qay qaz qbx.")], [sent("qby qbz qcx qcy.")])
    # A first tree that is optimal needs no pivot.
    assert _transport_cost(np.full(3, 1 / 3), np.full(4, 0.25), np.ones((3, 4))) == 1.0


@pytest.mark.parametrize("dim", [1, 3, 100, 300])
def test_block_slices_equal_per_cell_distances(dim) -> None:
    """Each entry of a block depends only on its own two rows: every cell's
    slice, single rows and columns included, is the kernel on the cell."""
    rng = np.random.default_rng(dim)
    for n in range(41):
        shape = (256, 256) if n == 0 else tuple(rng.integers(1, 40, size=2).tolist())
        x, y = rng.normal(size=(shape[0], dim)), rng.normal(size=(shape[1], dim))
        block = _distances(x, y)
        x_cuts = [0, *sorted(rng.integers(0, len(x), size=3).tolist()), len(x)]
        y_cuts = [0, *sorted(rng.integers(0, len(y), size=3).tolist()), len(y)]
        cells = [((a, b), (c, d)) for a, b in zip(x_cuts, x_cuts[1:])
                 for c, d in zip(y_cuts, y_cuts[1:])]
        p, q = int(rng.integers(0, len(x))), int(rng.integers(0, len(y)))
        cells += [((p, p + 1), (0, len(y))), ((0, len(x)), (q, q + 1)),
                  ((p, p + 1), (q, q + 1))]
        for (a, b), (c, d) in cells:
            cell = _distances(x[a:b], y[c:d])
            assert block[a:b, c:d].tobytes() == cell.tobytes()


# The kernel's distances are within this relative difference of cdist's.
_REL_TOL = 1e-14


@pytest.mark.parametrize("dim", [1, 3, 100, 300])
def test_distances_agree_with_cdist(dim) -> None:
    """Gram-form distances against scipy's direct ones, with rows of very
    different norms, rows planted at ``d² / (|u|² + |v|²)`` from 1 down to
    1e-12 and close around the recompute threshold, and identical rows,
    which must come out exactly 0."""
    rng = np.random.default_rng(dim)
    ratios = []
    for _ in range(50):
        n = int(rng.integers(2, 40))
        u = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3])
        u += rng.normal(size=dim) * rng.choice([0.0, 5.0])  # a shared offset
        # Half of them spread over 12 decades, half around the threshold.
        ratio = np.where(rng.random(n) < 0.5, 10.0 ** -rng.uniform(0.0, 12.0, size=n),
                         rng.uniform(1 / 16, 1 / 4, size=n))
        step = rng.normal(size=(n, dim))
        step *= np.sqrt(2.0 * ratio * (u * u).sum(axis=1))[:, None] / np.linalg.norm(
            step, axis=1)[:, None]
        v = np.vstack([u + step, u[: n // 4], rng.normal(size=(3, dim))])
        got, expected = _distances(u, v), cdist(u, v)
        assert (got[np.arange(n // 4), n + np.arange(n // 4)] == 0.0).all()
        assert (np.abs(got - expected) <= _REL_TOL * expected).all(), dim
        planted = got[np.arange(n), np.arange(n)] ** 2
        ratios += (planted / ((u * u).sum(axis=1) + (v[:n] * v[:n]).sum(axis=1))).tolist()
    # The planted pairs span the whole range, on both sides of the threshold.
    assert min(ratios) < 1e-11 and max(ratios) > 0.1
    assert sum(r < lha.metrics._RECOMPUTE for r in ratios) > 100
    assert sum(r >= lha.metrics._RECOMPUTE for r in ratios) > 100


def _exact_floor(table, xs, ys, quantile: float) -> float:
    exact, _ = transport_matrix_oracle("wmd", xs, ys, table)
    return float(np.quantile(exact[exact > 0.0], quantile))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind,quantile", [
    ("rwmd", None), ("wmd", None), ("wmd", 0.5), ("wmd", 0.9),
])
def test_matrix_matches_the_per_cell_oracle(seed, kind, quantile) -> None:
    rng = np.random.default_rng(seed)
    table = _table(rng, int(rng.integers(2, 6)))
    xs = _sentences(rng, "a", 5)
    ys = _sentences(rng, "a", 4)  # the same uids as xs
    docs_x = _whole(rng, ["a", "b", "c"])
    docs_y = _whole(rng, ["a", "b"])
    floor = None if quantile is None else _exact_floor(table, xs, ys, quantile)
    scorer = make_scorer(kind, table=table, floor=floor)
    counts = np.zeros(3, dtype=int)
    # One scorer for every call, so later calls read cached bags.
    for left, right in [(xs, ys), (ys, xs), (docs_x, docs_y), (xs, docs_y), (xs, ys)]:
        expected, cell_counts = transport_matrix_oracle(kind, left, right, table, floor)
        assert scorer.matrix(left, right).tobytes() == expected.tobytes()
        counts += cell_counts
    if kind == "wmd":
        assert (scorer.cells, scorer.pruned, scorer.solved) == tuple(counts)
        assert (scorer.pruned > 0) == (floor is not None)


@pytest.mark.parametrize("budget", [1, 5, 40, 2**16])
def test_any_block_budget_gives_the_oracle_matrix(monkeypatch, budget) -> None:
    monkeypatch.setattr(lha.metrics, "_BLOCK_CELLS", budget)
    rng = np.random.default_rng(budget)
    table = _table(rng, 4)
    xs = _sentences(rng, "a", 6) + _whole(rng, ["a"])
    ys = _sentences(rng, "b", 7)
    floor = _exact_floor(table, xs, ys, 0.5)
    for kind, fl in [("rwmd", None), ("wmd", floor)]:
        expected, _ = transport_matrix_oracle(kind, xs, ys, table, fl)
        got = make_scorer(kind, table=table, floor=fl).matrix(xs, ys)
        assert got.tobytes() == expected.tobytes(), kind


@pytest.mark.parametrize("budget", [None, 64])
def test_a_large_call_never_builds_a_block_above_the_budget(monkeypatch, budget) -> None:
    blocks: list[tuple[int, int]] = []
    real_distances = lha.metrics._distances

    def recording_distances(u, v):
        blocks.append((len(u), len(v)))
        return real_distances(u, v)

    monkeypatch.setattr(lha.metrics, "_distances", recording_distances)
    rng = np.random.default_rng(7)
    table = _table(rng, 3)
    if budget is None:
        # Long whole documents under the default budget.
        xs = _whole(rng, [f"s{i}" for i in range(120)])
        ys = _whole(rng, [f"t{i}" for i in range(100)])
    else:
        # Sentences of at most 8 words: one row bag times all columns is
        # already over the budget, so the columns split too.
        monkeypatch.setattr(lha.metrics, "_BLOCK_CELLS", budget)
        xs, ys = _sentences(rng, "a", 20), _sentences(rng, "b", 30)
    got = RwmdScorer(table).matrix(xs, ys)
    sizes_x = [nb.rows.size for nb in (_nbow(x, table) for x in xs) if nb]
    sizes_y = [nb.rows.size for nb in (_nbow(y, table) for y in ys) if nb]
    cap = lha.metrics._BLOCK_CELLS
    assert max(sizes_x) * max(sizes_y) <= cap
    assert sum(sizes_x) * sum(sizes_y) > 3 * cap
    assert len(blocks) > 3
    assert all(r * c <= cap for r, c in blocks)
    # Every distance is computed once.
    assert sum(r * c for r, c in blocks) == sum(sizes_x) * sum(sizes_y)
    expected, _ = transport_matrix_oracle("rwmd", xs, ys, table)
    assert got.tobytes() == expected.tobytes()


def test_each_sentence_gets_one_bag(monkeypatch) -> None:
    built: list[Sentence] = []
    real_nbow = lha.metrics._nbow

    def counting_nbow(x, table):
        built.append(x)
        return real_nbow(x, table)

    monkeypatch.setattr(lha.metrics, "_nbow", counting_nbow)
    rng = np.random.default_rng(3)
    table = _table(rng, 3)
    xs, ys = _sentences(rng, "a", 4), _sentences(rng, "a", 3)
    scorer = RwmdScorer(table)
    for left, right in [(xs, ys), (ys, xs), (xs, xs), (ys[:2], xs[1:])]:
        scorer.matrix(left, right)
    assert len(built) == len({id(s) for s in xs + ys}) == len(xs) + len(ys)


@pytest.mark.parametrize("quantile", [None, 0.3, 0.8])
def test_one_lp_per_solved_cell_with_two_words_a_side(monkeypatch, quantile) -> None:
    calls = []
    real_plan = lha.metrics._transport_plan

    def counting_plan(*args, **kwargs):
        calls.append(1)
        return real_plan(*args, **kwargs)

    rng = np.random.default_rng(11)
    table = _table(rng, 4)
    xs = _sentences(rng, "a", 6) + [sent("qax qax.", "a", 9)]
    ys = _sentences(rng, "b", 5) + [sent("qby.", "b", 9)]
    floor = None if quantile is None else _exact_floor(table, xs, ys, quantile)
    monkeypatch.setattr(lha.metrics, "_transport_plan", counting_plan)
    scorer = WmdScorer(table, floor)
    scorer.matrix(xs, ys)

    def words(s: Sentence) -> int:
        nb = _nbow(s, table)
        return 0 if nb is None else nb.rows.size

    wx = np.array([words(x) for x in xs])[:, None]
    wy = np.array([words(y) for y in ys])[None, :]
    solved = (wx > 0) & (wy > 0)
    if floor is not None:
        solved &= ~(RwmdScorer(table).matrix(xs, ys) < floor - _FLOOR_SLACK)
    multi = (wx >= 2) & (wy >= 2)
    assert scorer.solved == solved.sum()
    assert len(calls) == (solved & multi).sum()
    assert (solved & multi).any() and (solved & ~multi).any()


def test_module_functions_score_through_the_scorer_path() -> None:
    rng = np.random.default_rng(5)
    table = _table(rng, 4)
    for _ in range(60):
        x = [str(w) for w in rng.choice(_WORDS, size=int(rng.integers(1, 7)))]
        y = [str(w).upper() for w in rng.choice(_WORDS, size=int(rng.integers(1, 7)))]
        cx, cy = Counter(x), Counter(t.lower() for t in y)
        a = np.array([cx[t] / len(x) for t in sorted(cx)])
        b = np.array([cy[t] / len(y) for t in sorted(cy)])
        costs = _distances(np.vstack([table.get(t) for t in sorted(cx)]),
                           np.vstack([table.get(t) for t in sorted(cy)]))
        expected = _transport_cost(a, b, costs)
        assert wmd(x, y, table).hex() == expected.hex()
        assert math.isclose(expected, transport_cost_linprog_oracle(a, b, costs),
                            rel_tol=1e-12, abs_tol=1e-15)
        bound = max(float(np.dot(a, costs.min(axis=1))), float(np.dot(b, costs.min(axis=0))))
        assert rwmd(x, y, table).hex() == bound.hex()
        sx, sy = sent(" ".join(x)), sent(" ".join(y))
        similarity = WmdScorer(table).matrix([sx], [sy])[0, 0]
        assert to_similarity(wmd(sx, sy, table)) == similarity
