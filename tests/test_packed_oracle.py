"""The packed F_p matrix helpers and the oracle's radical chain, checked
against the dense list code they replaced.

``_reference_mat_mul``, ``_reference_mat_add``, ``_reference_poly_eval_matrix``,
``_reference_min_poly`` and ``_reference_radical_basis`` are the former
``homalg`` routines on lists of lists, kept here as the slow path; the
radical reference takes a characteristic polynomial of every product at
every level, and packs its coordinate rows only at the end.  The primes cover bits (2), byte slots (3 to 13) and wider
slots (257).
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from clannish.examples import frobenius_pair, gelfand_ponomarev, module_catalog, one_loop_pair
from clannish.homalg import EndAlgebra, charpoly, direct_sum, min_poly, radical_basis
from clannish.linalg import (
    Matrix,
    _unpack,
    combine,
    left_nullspace,
    mat_add,
    mat_identity,
    mat_mul,
    pack_matrix,
    poly_eval_matrix,
    transpose,
    unpack_matrix,
)
from clannish.reps import Representation

PRIMES = (2, 3, 5, 13, 257)

# -- the dense list code -------------------------------------------------------


def _reference_mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _reference_mat_add(a, b, p):
    return [[(x + y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _reference_identity(nn):
    return [[1 if i == j else 0 for j in range(nn)] for i in range(nn)]


def _reference_poly_eval_matrix(poly, x, p):
    nn = len(x)
    out = [[0] * nn for _ in range(nn)]
    power = _reference_identity(nn)
    for c in poly:
        if c % p:
            out = _reference_mat_add(out, [[(c * y) % p for y in row] for row in power], p)
        power = _reference_mat_mul(power, x, p)
    return out


def _reference_min_poly(mat, p):
    nn = len(mat)
    width = nn * nn
    powers = [_reference_identity(nn)]
    flat = [[powers[0][i][j] for i in range(nn) for j in range(nn)]]
    while True:
        nxt = _reference_mat_mul(powers[-1], mat, p)
        powers.append(nxt)
        flat.append([nxt[i][j] for i in range(nn) for j in range(nn)])
        sols = left_nullspace(flat, p, width=width)
        if sols:
            best = None
            for s in sols:
                deg = max(i for i, c in enumerate(s) if c % p)
                if best is None or deg < best[0]:
                    best = (deg, s)
            deg, s = best
            inv = pow(s[deg], p - 2, p)
            return [(c * inv) % p for c in s[: deg + 1]]


def _dense_element(alg, coeffs):
    nn, p = alg.amb, alg.p
    out = [[0] * nn for _ in range(nn)]
    for c, flat in zip(coeffs, alg.flats):
        entries = _unpack(flat, p, nn * nn)
        for i in range(nn):
            for j in range(nn):
                out[i][j] = (out[i][j] + c * entries[i * nn + j]) % p
    return out


def _combine(basis, coeffs, p):
    out = [0] * len(basis[0]) if basis else []
    for c, b in zip(coeffs, basis):
        if c % p:
            out = [(o + c * x) % p for o, x in zip(out, b)]
    return out


def _reference_radical_basis(alg):
    p = alg.p
    nn = alg.amb
    basis = [[1 if i == j else 0 for j in range(alg.dim)] for i in range(alg.dim)]
    power = 1
    while power <= nn and basis:
        mats_y = [_dense_element(alg, b) for b in basis]
        rows = []
        for bx in basis:
            x = _dense_element(alg, bx)
            row = []
            for y in mats_y:
                cp = charpoly(_reference_mat_mul(x, y, p), p)
                row.append(cp[nn - power] % p if nn - power >= 0 else 0)
            rows.append(row)
        null = left_nullspace(rows, p, width=len(mats_y))
        basis = [_combine(basis, c, p) for c in null]
        basis = [b for b in basis if any(b)]
        power *= p
    return pack_matrix(basis, p)


# -- random matrices -----------------------------------------------------------


def _entries(p):
    # reduced and unreduced entries, with p - 1 (the largest slot value) often
    return st.integers(0, p - 1) | st.sampled_from([p - 1, p, 2 * p - 1])


@st.composite
def _product(draw):
    """A prime and matrices a (n x m) and b (m x k), sizes up to 12."""
    p = draw(st.sampled_from(PRIMES))
    n, m, k = (draw(st.integers(1, 12)) for _ in range(3))
    a = draw(st.lists(st.lists(_entries(p), min_size=m, max_size=m), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(_entries(p), min_size=k, max_size=k), min_size=m, max_size=m))
    return p, a, b


@st.composite
def _square(draw, max_size=12):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_size))
    rows = draw(st.lists(st.lists(_entries(p), min_size=n, max_size=n), min_size=n, max_size=n))
    return p, rows


def _reduced(rows, p):
    return [[x % p for x in r] for r in rows]


@settings(max_examples=40)
@given(_product())
def test_mat_mul_matches_the_dense_product(case):
    p, a, b = case
    got = mat_mul(pack_matrix(a, p), pack_matrix(b, p), p)
    assert unpack_matrix(got, p, len(b[0])) == _reference_mat_mul(a, b, p)


@settings(max_examples=40)
@given(_square(), st.data())
def test_mat_add_matches_the_dense_sum(case, data):
    p, a = case
    n = len(a)
    b = data.draw(st.lists(st.lists(_entries(p), min_size=n, max_size=n), min_size=n, max_size=n))
    got = mat_add(pack_matrix(a, p), pack_matrix(b, p), p)
    assert unpack_matrix(got, p, len(a)) == _reference_mat_add(_reduced(a, p), _reduced(b, p), p)


@settings(max_examples=40)
@given(_square(), st.data())
def test_poly_eval_matches_the_dense_powers(case, data):
    p, x = case
    poly = data.draw(st.lists(_entries(p), max_size=6))
    got = poly_eval_matrix(poly, pack_matrix(x, p), p)
    assert unpack_matrix(got, p, len(x)) == _reference_poly_eval_matrix(poly, _reduced(x, p), p)


@settings(max_examples=40)
@given(_square(max_size=6))
def test_min_poly_matches_the_dense_powers(case):
    p, x = case
    assert min_poly(pack_matrix(x, p), p) == _reference_min_poly(_reduced(x, p), p)


@settings(max_examples=40)
@given(_square())
def test_transpose_and_trace(case):
    # the first radical level rests on c_{n-1}(z) == -tr(z)
    p, z = case
    z = _reduced(z, p)
    nn = len(z)
    assert unpack_matrix(transpose(pack_matrix(z, p), p, nn), p, nn) == [list(c) for c in zip(*z)]
    assert charpoly(z, p)[nn - 1] == -sum(z[i][i] for i in range(nn)) % p


def test_all_p_minus_one_matrices_do_not_carry():
    # every slot of an unreduced sum of 12 products would pass 255 for
    # byte slots, and 2**16 - 1 for 257
    for p in PRIMES:
        nn = 12
        full = pack_matrix([[p - 1] * nn for _ in range(nn)], p)
        expect = nn * (p - 1) ** 2 % p
        assert unpack_matrix(mat_mul(full, full, p), p, nn) == [[expect] * nn] * nn
        twice = 2 * (p - 1) % p
        assert unpack_matrix(mat_add(full, full, p), p, nn) == [[twice] * nn] * nn
        poly = [p - 1] * 5
        got = poly_eval_matrix(poly, full, p)
        dense = [[p - 1] * nn for _ in range(nn)]
        assert unpack_matrix(got, p, nn) == _reference_poly_eval_matrix(poly, dense, p)
        rows = list(full) * 3
        assert _unpack(combine([p - 1] * len(rows), rows, p), p, nn) == (
            (len(rows) * (p - 1) ** 2 % p,) * nn
        )
        assert mat_mul(mat_identity(nn, p), full, p) == full


# -- End algebras of direct sums -----------------------------------------------

PRESENTATIONS = {
    **{p: (lambda p=p: gelfand_ponomarev(p)) for p in PRIMES},
    4: lambda: one_loop_pair(2, 2),
    9: lambda: frobenius_pair(3, 2),
}


@functools.lru_cache(maxsize=None)
def _catalog(q):
    pres = PRESENTATIONS[q]()
    cat = module_catalog(pres, max_string_len=3, max_band_period=2, max_param_dim=1)
    return [rep for _, _, rep in cat if rep.dim() and rep.prime_dim() <= 6]


def _conjugate(rng, rep):
    """rep after a random invertible base change at every vertex."""
    pres = rep.pres
    field = pres.field
    elems = list(field.elements()) if field.q <= 16 else [field.el(i) for i in range(17)]
    base = {}
    for v in pres.vertices:
        d = rep.dims[v]
        while True:
            cand = Matrix(field, [[rng.choice(elems) for _ in range(d)] for _ in range(d)], d, d)
            if cand.is_invertible():
                base[v] = cand
                break
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        twist = pres.sigma(name)
        mats[name] = twist(base[info.source]).inverse() @ rep.mats[name] @ base[info.target]
    return Representation(pres, rep.dims, mats)


@st.composite
def _direct_sum(draw):
    """A direct sum of up to four catalog modules, prime dimension <= 12, in
    a random basis."""
    q = draw(st.sampled_from(sorted(PRESENTATIONS)))
    pool = _catalog(q)
    total = draw(st.sampled_from(pool))
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.sampled_from(pool))
        if total.prime_dim() + part.prime_dim() <= 12:
            total = direct_sum(total, part)
    return _conjugate(random.Random(draw(st.integers(0, 2**32))), total)


@settings(max_examples=15)
@given(_direct_sum(), st.data())
def test_radical_basis_matches_the_charpoly_chain(rep, data):
    alg = EndAlgebra(rep)
    coeffs = data.draw(st.lists(st.integers(0, alg.p - 1), min_size=alg.dim, max_size=alg.dim))
    assert unpack_matrix(alg.element(coeffs), alg.p, alg.amb) == _dense_element(alg, coeffs)
    assert radical_basis(alg) == _reference_radical_basis(alg)
