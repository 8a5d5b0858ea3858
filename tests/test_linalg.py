"""Exact sparse/dense linear algebra: ranks, solving, kernels."""

from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
from hypothesis import given, settings

from liftfields.linalg import (
    FactoredSpan,
    QuotientModel,
    SparseSpan,
    dense_rref,
    solve_sparse,
)

from oracles import kernel_basis, matrix_rank


def _to_rows(matrix):
    return [
        {j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix
    ]


def test_rank_oracle():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_sparse_span_matches_dense_rank():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 2]]
    span = SparseSpan()
    for row in _to_rows(m):
        span.add(row)
    assert span.dim == matrix_rank(m) == 3


def test_sparse_span_contains_and_residual():
    span = SparseSpan()
    span.add({0: Fraction(1), 1: Fraction(1)})
    assert span.contains({0: Fraction(2), 1: Fraction(2)})
    assert not span.contains({0: Fraction(1)})
    res = span.reduce_full({0: Fraction(1), 2: Fraction(3)})
    assert res and 2 in res


def test_solve_sparse_oracle():
    # x + y = 3, x - y = 1
    eqs = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}]
    sol = solve_sparse(eqs, [Fraction(3), Fraction(1)], 2)
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_sparse_inconsistent():
    eqs = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert solve_sparse(eqs, [Fraction(1), Fraction(2)], 1) is None


def test_kernel_basis_oracle():
    ker = kernel_basis([[1, 1, 0], [0, 0, 1]], 3)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] == 0 and v[2] == 0


matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=1, max_size=5
)


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    rank = matrix_rank(m)
    ker = kernel_basis(m, 4)
    assert rank + len(ker) == 4
    for v in ker:
        for row in m:
            assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_sparse_dense_rank_agree(m):
    span = SparseSpan()
    for row in _to_rows(m):
        span.add(row)
    assert span.dim == matrix_rank(m)


@given(matrices, st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_sparse_solves(m, x):
    rows = _to_rows(m)
    rhs = [
        sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in m
    ]
    sol = solve_sparse(rows, rhs, 4)
    assert sol is not None
    for row, b in zip(m, rhs):
        assert sum((Fraction(a) * s for a, s in zip(row, sol)), Fraction(0)) == b


def test_dense_rref_idempotent():
    m = [[2, 4], [1, 3]]
    rows, pivots = dense_rref([list(map(Fraction, row)) for row in m])
    assert dense_rref([row[:] for row in rows]) == (rows, pivots)


@given(
    st.lists(
        st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                 min_size=4, max_size=4),
        min_size=1, max_size=6,
    ),
    st.lists(st.integers(-3, 3), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_factored_span_matches_solve_sparse(vectors, x):
    """Vectors added in order u are the columns of a system; back
    substitution gives solve_sparse's solution (free unknowns 0)."""
    span = FactoredSpan()
    for u, v in enumerate(vectors):
        span.add({k: c for k, c in enumerate(v) if c}, u)
    b = [sum((v[k] * c for v, c in zip(vectors, x)), Fraction(0)) for k in range(4)]
    hits = {}
    assert span.reduce_full({k: c for k, c in enumerate(b) if c}, hits) == {}
    got = span.combination(hits)
    equations = [{u: v[k] for u, v in enumerate(vectors) if v[k]} for k in range(4)]
    want = solve_sparse(equations, b, len(vectors))
    assert [got.get(u, 0) for u in range(len(vectors))] == want


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
vectors = st.lists(st.lists(fractions, min_size=5, max_size=5), max_size=7)


def _lin(pairs):
    """sum(a * row) over (a, row) pairs, as a dict without zeros."""
    out = {}
    for a, row in pairs:
        for k, c in row.items():
            out[k] = out.get(k, 0) + a * c
    return {k: c for k, c in out.items() if c}


@given(vectors)
@settings(max_examples=60, deadline=None)
def test_stored_rows_and_factor_relations(vecs):
    """Kept rows are content-free integer rows with a positive lead; every
    factor entry and every dependent relation holds exactly."""
    inputs = _to_rows(vecs)
    plain, factored, dependent = SparseSpan(), FactoredSpan(), []
    for u, v in enumerate(inputs):
        plain.add(v)
        factored.add(v, u, dependent)
    for span in (plain, factored):
        assert span.dim == matrix_rank(vecs)
        for pivot, row in span.rows.items():
            assert pivot == min(row) and row[pivot] > 0
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1
    rows = factored.rows
    assert sorted(lead for lead, *_ in factored.factor) == sorted(rows)
    for lead, tag, m, c, d in factored.factor:
        rhs = [(c, inputs[tag])] + [(dj, rows[j]) for j, dj in d.items()]
        assert _lin([(m, rows[lead])]) == _lin(rhs)
    assert len(dependent) == len(vecs) - factored.dim
    for tag, d, c in dependent:
        assert inputs[tag] == _lin([(Fraction(-dj, c), rows[j]) for j, dj in d.items()])


@given(vectors, vectors, st.lists(fractions, min_size=5, max_size=5),
       st.lists(st.integers(-3, 3), min_size=14, max_size=14))
@settings(max_examples=60, deadline=None)
def test_quotient_model_matches_dense_rank(base, extras, probe, a):
    """QuotientModel against the dense rank: coordinates exist exactly on
    span(base + extras), vanish on the base, are linear, and the kept
    extras' coordinates have full rank."""
    b_rows, e_rows = _to_rows(base), _to_rows(extras)
    span = SparseSpan()
    for v in b_rows:
        span.add(v)
    qm = QuotientModel(span)
    kept = [v for v in e_rows if qm.extend(v)]
    rank_all = matrix_rank(base + extras)
    assert qm.dim == rank_all - matrix_rank(base)
    outside = matrix_rank(base + extras + [probe]) > rank_all
    assert (qm.coords(_to_rows([probe])[0]) is None) == outside
    for v in b_rows:
        assert qm.coords(v) == {}
    pairs = list(zip(a, b_rows + e_rows))
    parts = [qm.coords(v) for _, v in pairs]
    assert all(0 not in x.values() for x in parts)  # sparse: no zero is stored
    combined = [sum(c * x.get(i, 0) for (c, _), x in zip(pairs, parts)) for i in range(qm.dim)]
    assert qm.coords(_lin(pairs)) == {i: v for i, v in enumerate(combined) if v}
    assert len(kept) == qm.dim
    if kept:
        assert matrix_rank([[qm.coords(v).get(i, 0) for i in range(qm.dim)]
                            for v in kept]) == qm.dim


class _ReadLog(list):
    """A factor that records which of its positions are read."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = set()

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()

    def __reversed__(self):
        self.read.update(range(len(self)))
        return super().__reversed__()


nonzero = st.lists(fractions, min_size=5, max_size=5).filter(any)


@given(st.lists(nonzero, min_size=1, max_size=6), st.lists(nonzero, min_size=1, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_combination_reads_only_the_entries_a_relation_reaches(block_a, block_b, rng):
    """Vectors of two blocks on disjoint columns, added interleaved: the back
    substitution of a dependent vector reads exactly the factor entries its
    relation reaches through the entries' own relations, none of the other
    block, and gives the vector as minus a combination of the kept ones."""
    inputs = _to_rows(block_a) + [{k + 10: c for k, c in row.items()}
                                  for row in _to_rows(block_b)]
    order = list(range(len(inputs)))
    rng.shuffle(order)
    span, dependent = FactoredSpan(), []
    for u in order:
        span.add(inputs[u], u, dependent)
    where = {lead: k for k, (lead, *_) in enumerate(span.factor)}
    span.factor = _ReadLog(span.factor)
    for tag, d, den in dependent:
        reached, todo = set(), [where[j] for j in d]
        while todo:
            k = todo.pop()
            if k not in reached:
                reached.add(k)
                todo.extend(where[j] for j in span.factor[k][4])
        span.factor.read.clear()
        combo = span.combination(d, den)
        assert span.factor.read <= reached
        assert inputs[tag] == _lin([(-c, inputs[u]) for u, c in combo.items()])
        side = tag < len(block_a)
        assert all((u < len(block_a)) == side for u in combo)
