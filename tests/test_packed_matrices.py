"""The packed F_p matrix builders, relation graphs and Hom equations, checked
against the list-of-lists code they replaced.

``_reference_mat_vec``, ``_reference_prime_matrix``,
``_reference_scalar_block_matrix``, ``_reference_is_k_stable``,
``_reference_is_q_bound`` and ``_reference_hom_space`` are the former
``linalg``, ``relations`` and ``homalg`` routines on dense rows, kept here as
the slow path.  The fields cover bits (GF(2), GF(4)) and byte slots (GF(3),
GF(9), GF(25)).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from clannish.fields import Aut, make_field
from clannish.homalg import hom_space
from clannish.linalg import (
    Matrix,
    Subspace,
    expand_vector,
    frob_matrix,
    is_k_stable,
    k_matrix,
    left_nullspace,
    mult_matrix,
    pack_matrix,
    prime_matrix,
    scalar_block_matrix,
    unpack_matrix,
)
from clannish.presentation import ArrowInfo, validate
from clannish.relations import SemilinearRelation
from clannish.reps import Representation
from clannish.skewquad import SkewQuadratic

FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 2))

# -- the dense list code -------------------------------------------------------


def _reference_mat_vec(rows, v, p):
    out = [0] * (len(rows[0]) if rows else 0)
    for x, row in zip(v, rows):
        if x:
            out = [(acc + x * y) % p for acc, y in zip(out, row)]
    return out


def _reference_mult_matrix(field, lam):
    lam = field.el(lam)
    return [list((field.el([0] * j + [1]) * lam).coeffs) for j in range(field.n)]


def _reference_frob_matrix(field, k):
    return [list(Aut(field, k % field.n)(field.el([0] * j + [1])).coeffs) for j in range(field.n)]


def _reference_prime_matrix(field, sigma, kmatrix):
    n = field.n
    fm = _reference_frob_matrix(field, sigma.k)
    d, e = kmatrix.nrows, kmatrix.ncols
    out = [[0] * (e * n) for _ in range(d * n)]
    for i in range(d):
        for j in range(e):
            entry = kmatrix.rows[i][j]
            if not entry:
                continue
            rm = _reference_mult_matrix(field, entry)
            block = [_reference_mat_vec(rm, frow, field.p) for frow in fm]
            for a in range(n):
                row = out[i * n + a]
                for b in range(n):
                    row[j * n + b] = (row[j * n + b] + block[a][b]) % field.p
    return out


def _reference_scalar_block_matrix(field, lam, blocks):
    n = field.n
    rm = _reference_mult_matrix(field, lam)
    out = [[0] * (blocks * n) for _ in range(blocks * n)]
    for b in range(blocks):
        for a in range(n):
            for c in range(n):
                out[b * n + a][b * n + c] = rm[a][c]
    return out


def _reference_is_k_stable(field, space):
    if space.dim == 0:
        return True
    blocks = space.ambient // field.n
    gen = _reference_scalar_block_matrix(field, field.multiplicative_generator(), blocks)
    return all(space.contains(_reference_mat_vec(gen, list(r), field.p)) for r in space.rows)


def _reference_is_q_bound(rel, q):
    sp = rel.src * rel.field.n
    bm = _reference_scalar_block_matrix(rel.field, q.beta, rel.src)
    gm = _reference_scalar_block_matrix(rel.field, q.gamma, rel.src)
    for r in rel.space.rows:
        v, w = list(r[:sp]), list(r[sp:])
        bw = _reference_mat_vec(bm, w, rel.p)
        gv = _reference_mat_vec(gm, v, rel.p)
        if not rel.space.contains(w + [(x - y) % rel.p for x, y in zip(bw, gv)]):
            return False
    return True


def _reference_hom_space(m1, m2):
    """Basis of Hom(m1, m2) from dense equation rows, one per prime
    coordinate of each intertwining condition."""
    pres = m1.pres
    field = pres.field
    p, n = field.p, field.n
    offsets = {}
    total = 0
    for v in pres.vertices:
        offsets[v] = total
        total += m1.dims[v] * m2.dims[v] * n
    if total == 0:
        return []
    equations = []
    for name in pres.arrow_names:
        info = pres.arrows[name]
        sigma = pres.sigma(name)
        ma, na = m1.mats[name], m2.mats[name]
        for out_i in range(m1.dims[info.source]):
            for out_j in range(m2.dims[info.target]):
                for out_c in range(n):
                    row = [0] * total
                    for k in range(m1.dims[info.target]):
                        coef = ma.rows[out_i][k]
                        if not coef:
                            continue
                        rm = _reference_mult_matrix(field, coef)
                        base = offsets[info.target] + (k * m2.dims[info.target] + out_j) * n
                        for cc in range(n):
                            row[base + cc] = (row[base + cc] + rm[cc][out_c]) % p
                    for k in range(m2.dims[info.source]):
                        coef = na.rows[k][out_j]
                        if not coef:
                            continue
                        rm = _reference_mult_matrix(field, coef)
                        fm = _reference_frob_matrix(field, sigma.k)
                        base = offsets[info.source] + (out_i * m2.dims[info.source] + k) * n
                        for cc in range(n):
                            vec = _reference_mat_vec(rm, fm[cc], p)
                            row[base + cc] = (row[base + cc] - vec[out_c]) % p
                    equations.append(row)
    if equations:
        sols = left_nullspace([list(c) for c in zip(*equations)], p, width=len(equations))
    else:
        sols = [[1 if i == j else 0 for j in range(total)] for i in range(total)]
    basis = []
    for s in sols:
        per_vertex = {}
        for v in pres.vertices:
            rows = []
            for i in range(m1.dims[v]):
                row = []
                for j in range(m2.dims[v]):
                    base = offsets[v] + (i * m2.dims[v] + j) * n
                    row.append(field.el(list(s[base : base + n])))
                rows.append(row)
            per_vertex[v] = Matrix(field, rows, m1.dims[v], m2.dims[v])
        basis.append(per_vertex)
    return basis


# -- random data ---------------------------------------------------------------


def _field(draw):
    return make_field(*draw(st.sampled_from(FIELDS)))


def _kmatrix(rng, field, nrows, ncols, zeros=0.3):
    elems = list(field.elements())
    return Matrix(
        field,
        [[field.zero() if rng.random() < zeros else rng.choice(elems) for _ in range(ncols)]
         for _ in range(nrows)],
        nrows,
        ncols,
    )


@st.composite
def _semilinear(draw):
    field = _field(draw)
    sigma = field.frobenius(draw(st.integers(0, field.n - 1)))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return field, sigma, _kmatrix(random.Random(draw(st.integers(0, 2**32))), field, nrows, ncols)


@settings(max_examples=60)
@given(_semilinear())
def test_prime_matrix_matches_the_list_builder(case):
    field, sigma, km = case
    p = field.p
    got = prime_matrix(field, sigma, km)
    assert unpack_matrix(got, p, km.ncols * field.n) == _reference_prime_matrix(field, sigma, km)
    elem = field.el(km.rows[0][0]) if km.nrows and km.ncols else field.one()
    assert mult_matrix(field, elem) == pack_matrix(_reference_mult_matrix(field, elem), p)
    assert frob_matrix(field, sigma.k) == pack_matrix(_reference_frob_matrix(field, sigma.k), p)
    blocks = km.nrows
    want = _reference_scalar_block_matrix(field, elem, blocks)
    assert unpack_matrix(scalar_block_matrix(field, elem, blocks), p, blocks * field.n) == want


@settings(max_examples=60)
@given(_semilinear())
def test_graph_and_identity_are_the_eliminated_rows(case):
    field, sigma, km = case
    sp, tp = km.nrows * field.n, km.ncols * field.n
    pm = _reference_prime_matrix(field, sigma, km)
    rows = [[int(i == j) for j in range(sp)] + pm[i] for i in range(sp)]
    rel = SemilinearRelation.graph(field, sigma, km)
    assert rel.space == Subspace(field.p, sp + tp, rows)
    assert rel.space.pivots == Subspace(field.p, sp + tp, rows).pivots
    ident = SemilinearRelation.identity(field, km.nrows)
    eye = [[int(i == j) for j in range(sp)] * 2 for i in range(sp)]
    assert ident.space == Subspace(field.p, 2 * sp, eye)


@st.composite
def _space(draw):
    """A subspace of F_p^(d n): either random rows or the F_p-span of K-lines."""
    field = _field(draw)
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    elems = list(field.elements())
    vecs = []
    for _ in range(draw(st.integers(0, 3))):
        v = [rng.choice(elems) for _ in range(d)]
        if draw(st.booleans()):
            scalars = [field.el([0] * j + [1]) for j in range(field.n)]
            vecs += [expand_vector(field, [lam * x for x in v]) for lam in scalars]
        else:
            vecs.append(expand_vector(field, v))
    return field, Subspace(field.p, d * field.n, vecs)


@settings(max_examples=80)
@given(_space())
def test_is_k_stable_matches_the_list_check(case):
    field, space = case
    assert is_k_stable(field, space) == _reference_is_k_stable(field, space)


@st.composite
def _q_bound_case(draw):
    """A quadratic and the graph of a map on K^d: a random map, or lam times
    the identity for a root lam of q."""
    field = _field(draw)
    sigma = field.frobenius(draw(st.integers(0, field.n - 1)))
    elems = list(field.elements())
    beta, lam = draw(st.sampled_from(elems)), draw(st.sampled_from(elems))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        gamma = draw(st.sampled_from(elems))
        km = _kmatrix(random.Random(draw(st.integers(0, 2**32))), field, d, d)
    else:
        gamma = beta * lam - sigma(lam) * lam
        km = Matrix.identity(field, d).scale(lam)
    q = SkewQuadratic(field, sigma, beta, gamma)
    return q, SemilinearRelation.graph(field, sigma, km)


@settings(max_examples=60)
@given(_q_bound_case())
def test_is_q_bound_matches_the_list_check(case):
    q, rel = case
    assert rel.is_q_bound(q) == _reference_is_q_bound(rel, q)
    assert rel.inverse().is_q_bound(q) == _reference_is_q_bound(rel.inverse(), q)


# -- Hom spaces ----------------------------------------------------------------


def _presentation(field, kind):
    """Presentations over ``field``: two twisted loops at one vertex (both
    terms of an equation hit one slot), two vertices with arrows both ways
    and a loop, or no arrows at all."""
    tw = 1 % field.n
    if kind == "loops":
        return validate(
            field,
            ("1",),
            [ArrowInfo("F", "1", "1", tw), ArrowInfo("V", "1", "1", 0)],
            {},
            [("F", "V"), ("V", "F")],
        )
    if kind == "quiver":
        return validate(
            field,
            ("1", "2"),
            [
                ArrowInfo("a", "1", "2", 0),
                ArrowInfo("b", "2", "1", tw),
                ArrowInfo("c", "1", "1", tw),
            ],
            {},
            [("a", "b"), ("b", "a"), ("c", "c"), ("a", "c"), ("c", "b")],
        )
    return validate(field, ("1", "2"), [], {}, [])


def _module(rng, pres, dims, zeros):
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        mats[name] = _kmatrix(rng, pres.field, dims[info.source], dims[info.target], zeros)
    return Representation(pres, dims, mats)


def _conjugate(rng, rep):
    pres = rep.pres
    field = pres.field
    base = {}
    for v in pres.vertices:
        while True:
            cand = _kmatrix(rng, field, rep.dims[v], rep.dims[v], 0.0)
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
def _hom_pair(draw):
    """Two modules: independent (often Hom-free), a module and a conjugate of
    it (Hom contains an isomorphism), or two sparse modules (large Hom)."""
    field = _field(draw)
    pres = _presentation(field, draw(st.sampled_from(["loops", "quiver", "arrowless"])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cap = 3 if field.n == 1 else 2
    mode = draw(st.sampled_from(["conjugate", "sparse", "independent"]))
    zeros = 0.8 if mode == "sparse" else 0.3
    # vertex 1 is never empty, vertex 2 may be
    dims1 = {v: draw(st.integers(v == "1", cap)) for v in pres.vertices}
    m1 = _module(rng, pres, dims1, zeros)
    if mode == "conjugate":
        return m1, _conjugate(rng, m1)
    dims2 = {v: draw(st.integers(v == "1", cap)) for v in pres.vertices}
    return m1, _module(rng, pres, dims2, zeros)


@settings(max_examples=120)
@given(_hom_pair())
def test_hom_space_matches_the_dense_equations(pair):
    m1, m2 = pair
    got = [
        {v: k_matrix(m1.field, b[v], m1.dims[v], m2.dims[v]) for v in b}
        for b in hom_space(m1, m2).basis
    ]
    assert got == _reference_hom_space(m1, m2)
