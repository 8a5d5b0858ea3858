"""Exact sparse/dense linear algebra: ranks, solving, kernels."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from liftfields.linalg import (
    FactoredSpan,
    SparseSpan,
    dense_rref,
    kernel_basis,
    matrix_rank,
    solve_sparse,
)


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
    res = span.residual({0: Fraction(1), 2: Fraction(3)})
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
