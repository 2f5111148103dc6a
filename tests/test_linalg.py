import itertools
import random

import pytest

from clannish.errors import DimensionMismatch
from clannish.linalg import (
    Matrix,
    Subspace,
    expand_vector,
    left_nullspace,
    mat_mul,
    pack_matrix,
    prime_matrix,
    rref,
    unpack_matrix,
)
from k_reference import contract_vector


def test_matrix_basics(F5):
    m = Matrix(F5, [[1, 2], [3, 4]])
    ident = Matrix.identity(F5, 2)
    assert m @ ident == m
    assert (m - m).is_zero()
    inv = m.inverse()
    assert m @ inv == ident
    with pytest.raises(DimensionMismatch):
        m @ Matrix.identity(F5, 3)


def test_matrix_singular(F2):
    m = Matrix(F2, [[1, 1], [1, 1]])
    assert not m.is_invertible()


def test_rref_canonical():
    pivots, rows = rref([[2, 4, 0], [1, 2, 1]], 5)
    assert pivots == [0, 2]
    assert rows == [(1, 2, 0), (0, 0, 1)]


def _all_subspaces_f2(dim):
    vecs = [v for v in itertools.product([0, 1], repeat=dim)]
    seen = {}
    for r in range(len(vecs)):
        pass
    out = set()
    for choice in itertools.product([0, 1], repeat=len(vecs)):
        rows = [v for v, c in zip(vecs, choice) if c]
        out.add(Subspace(2, dim, rows))
        if len(out) > 70:
            break
    return list(out)


def test_subspace_sum_intersect_against_enumeration():
    # brute-force oracle: membership by enumerating all vectors of F_2^3
    vecs = list(itertools.product([0, 1], repeat=3))
    rng = random.Random(1)
    for _ in range(40):
        a = Subspace(2, 3, [rng.choice(vecs) for _ in range(2)])
        b = Subspace(2, 3, [rng.choice(vecs) for _ in range(2)])
        inter = a.intersect(b)
        su = a.sum(b)
        members_inter = {v for v in vecs if a.contains(v) and b.contains(v)}
        assert {v for v in vecs if inter.contains(v)} == members_inter
        span = set()
        for v in vecs:
            if su.contains(v):
                span.add(v)
        # sum contains both and is smallest: check dimension formula
        assert su.dim == a.dim + b.dim - inter.dim
        assert all(su.contains(v) for v in members_inter)


@pytest.mark.parametrize(
    "bad",
    [
        lambda p: Subspace(p, 2, [[1, 0]]).contains([1, 0, 1]),
        lambda p: Subspace(p, 2, [[1, 0]]).contains([0]),
        lambda p: Subspace(p, 2, [[1, 0, 1]]),
        lambda p: Subspace(p, 3, [[1, 0]]),
        lambda p: rref([[1, 0], [0, 1, 1]], p),
        lambda p: Subspace(p, 2) <= Subspace(p, 3),
    ],
    ids=["contains-long", "contains-short", "row-long", "row-short", "rref-ragged", "le-ambient"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_dimension_checks_at_the_subspace_boundary(p, bad):
    with pytest.raises(DimensionMismatch):
        bad(p)


def test_left_nullspace():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    null = left_nullspace(rows, 2)
    assert len(null) == 1
    c = null[0]
    combo = [sum(ci * rows[i][j] for i, ci in enumerate(c)) % 2 for j in range(3)]
    assert combo == [0, 0, 0]


def test_prime_matrix_matches_semilinear_action(F4, F9):
    rng = random.Random(3)
    for f in (F4, F9):
        elems = list(f.elements())
        for _ in range(5):
            km = Matrix(f, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            sigma = f.frobenius(1)
            pm = prime_matrix(f, sigma, km)
            for _ in range(5):
                v = tuple(rng.choice(elems) for _ in range(2))
                direct = km.apply_row(tuple(sigma(x) for x in v))
                prod = mat_mul(pack_matrix([expand_vector(f, v)], f.p), pm, f.p)
                [via_prime] = unpack_matrix(prod, f.p, km.ncols * f.n)
                assert contract_vector(f, via_prime) == direct


def test_expand_contract_roundtrip(F9):
    v = (F9.gen(), F9.one() + F9.gen())
    assert contract_vector(F9, expand_vector(F9, v)) == v
