"""The packed module code against the K-level code it replaced.

``Representation.check_relations`` and ``path_prime``, ``hom_space``,
``_split_by_idempotent``, ``SkewQuadratic.is_root_prime`` and
``Matrix.inverse``/``is_invertible`` work on packed prime matrices; the
references in ``k_reference`` work on matrices with ``FieldElement``
entries.  The modules are random conjugated sums over all seven bundled
presentations (GF(2), GF(4), GF(3) and GF(9)), and arbitrary arrow matrices
that break the relations.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import k_reference
from clannish import homalg
from clannish.fields import Aut, make_field
from clannish.homalg import EndAlgebra, _find_splitting_idempotent, _split_by_idempotent, hom_space
from clannish.linalg import Matrix, k_matrix, mat_identity, mat_mul, prime_matrix
from clannish.reps import Representation
from clannish.skewquad import SkewQuadratic
from test_suffix_memo import PRESENTATIONS, _conjugated_sum

NAMES = sorted(PRESENTATIONS)
FIELDS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
_PRES = {}


def _pres(name):
    if name not in _PRES:
        make, args = PRESENTATIONS[name]
        _PRES[name] = make(*args)
    return _PRES[name]


def _kmatrix(rng, field, nrows, ncols, zeros=0.3):
    elems = list(field.elements())
    return Matrix(
        field,
        [[field.zero() if rng.random() < zeros else rng.choice(elems) for _ in range(ncols)]
         for _ in range(nrows)],
        nrows,
        ncols,
    )


def _arbitrary(rng, pres, dims):
    """A module with random arrow matrices: most break some relation."""
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        mats[name] = _kmatrix(rng, pres.field, dims[info.source], dims[info.target])
    return Representation(pres, dims, mats)


def _with(rep, name, mat):
    return Representation(rep.pres, rep.dims, {**rep.mats, name: mat})


def _random_path(rng, pres, length):
    """A composable arrow sequence, last arrow first in the action."""
    names = [rng.choice(pres.arrow_names)]
    for _ in range(length - 1):
        target = pres.arrows[names[0]].target
        after = [a for a in pres.arrow_names if pres.arrows[a].source == target]
        names.insert(0, rng.choice(after))
    return tuple(names)


def _k_hom(m1, m2, basis):
    return [{v: k_matrix(m1.field, b[v], m1.dims[v], m2.dims[v]) for v in b} for b in basis]


# -- relations and paths ------------------------------------------------------


@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_relation_check_matches_the_k_level_check(name, seed, kdim):
    pres = _pres(name)
    rng = random.Random(seed)
    rep = _conjugated_sum(pres, rng, kdim)
    assert rep.check_relations() and k_reference.check_relations(rep)
    # one arrow replaced at random: the two checks still agree
    arrow = rng.choice(pres.arrow_names)
    info = pres.arrows[arrow]
    mat = _kmatrix(rng, pres.field, rep.dims[info.source], rep.dims[info.target], rng.random())
    broken = _with(rep, arrow, mat)
    assert broken.check_relations() == k_reference.check_relations(broken)
    dims = {v: rng.randint(0, 3) for v in pres.vertices}
    other = _arbitrary(rng, pres, dims)
    assert other.check_relations() == k_reference.check_relations(other)


@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_path_prime_is_the_prime_matrix_of_the_path_action(name, seed, length):
    pres = _pres(name)
    rng = random.Random(seed)
    rep = _arbitrary(rng, pres, {v: rng.randint(1, 3) for v in pres.vertices})
    paths = list(pres.zero_relations) + [_random_path(rng, pres, length) if length else ()]
    for names in paths:
        vertex = rng.choice(pres.vertices) if not names else None
        act = k_reference.path_action(rep, names, vertex)
        want = prime_matrix(pres.field, act.sigma, act.matrix)
        assert rep.path_prime(names, vertex) == want, names


@pytest.mark.parametrize("name", ["E1", "A4", "E1/GF(9)"])
def test_a_broken_zero_relation_and_a_broken_quadratic_are_caught(name):
    pres = _pres(name)
    rep = _conjugated_sum(pres, random.Random(f"broken/{name}"), 4)
    field = pres.field
    # a is nonzero on its own image: the relation aa (ab at A4) fails
    d1 = rep.dims["1"]
    assert d1 and rep.dims[pres.arrows["s"].source]
    if name == "A4":
        d2 = rep.dims["2"]
        a = Matrix(field, [[1 if i == j else 0 for j in range(d2)] for i in range(d1)])
        b = Matrix(field, [[1 if i == j else 0 for j in range(d1)] for i in range(d2)])
        broken_zero = _with(_with(rep, "a", a), "b", b)
    else:
        broken_zero = _with(rep, "a", Matrix.identity(field, d1))
    special = pres.arrows["s"].source
    broken_quadratic = _with(rep, "s", Matrix.zeros(field, rep.dims[special], rep.dims[special]))
    for broken in (broken_zero, broken_quadratic):
        assert not k_reference.check_relations(broken)
        assert not broken.check_relations()
    # the broken quadratic leaves every zero relation intact
    assert all(not any(broken_quadratic.path_prime(r)) for r in pres.zero_relations)


@st.composite
def _quadratic_case(draw):
    """A skew quadratic with beta and sigma drawn freely, gamma chosen so
    that one scalar is a root, and a matrix: a diagonal of roots, one
    entry of it changed, or random."""
    field = make_field(*draw(st.sampled_from(FIELDS)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    elems = list(field.elements())
    sigma = field.frobenius(draw(st.integers(0, field.n - 1)))
    beta, lam = rng.choice(elems), rng.choice(elems)
    gamma = beta * lam - sigma(lam) * lam
    q = SkewQuadratic(field, sigma, beta, gamma)
    roots = [x for x in elems if not q.value(x)]
    d = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["roots", "changed", "random"]))
    if mode == "random":
        return q, _kmatrix(rng, field, d, d, rng.random())
    rows = [[rng.choice(roots) if i == j else field.zero() for j in range(d)] for i in range(d)]
    if mode == "changed" and d:
        rows[rng.randrange(d)][rng.randrange(d)] = rng.choice(elems)
    return q, Matrix(field, rows, d, d)


@given(_quadratic_case())
def test_packed_quadratic_check_matches_the_residue(case):
    q, m = case
    x = prime_matrix(q.field, q.sigma, m)
    assert q.is_root_prime(x, m.nrows) == q.is_root_matrix(m)


# -- Hom spaces and splitting --------------------------------------------------


@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_hom_space_matches_the_k_level_solutions(name, seed, kdim, same):
    pres = _pres(name)
    rng = random.Random(seed)
    m1 = _conjugated_sum(pres, rng, kdim)
    m2 = _conjugated_sum(pres, rng, kdim) if not same else m1
    got = hom_space(m1, m2).basis
    want = k_reference.hom_space(m1, m2)
    assert _k_hom(m1, m2, got) == want
    # every row of each prime matrix, not only the ones read back
    ident = Aut(pres.field, 0)
    assert got == [{v: prime_matrix(pres.field, ident, t[v]) for v in t} for t in want]


@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_split_parts_match_the_k_level_split(name, seed, kdim):
    pres = _pres(name)
    rep = _conjugated_sum(pres, random.Random(seed), kdim)
    if rep.prime_dim() > homalg.BRUTE_LIMIT:
        return
    alg = EndAlgebra(rep)
    e = _find_splitting_idempotent(alg) if alg.dim > 1 else None
    if e is None:
        return
    for got, want in zip(_split_by_idempotent(rep, e), k_reference.split_by_idempotent(rep, e)):
        assert got.dims == want.dims
        assert got.mats == want.mats


# -- Matrix.inverse -------------------------------------------------------------


@st.composite
def _square(draw):
    field = make_field(*draw(st.sampled_from(FIELDS)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _kmatrix(rng, field, *(draw(st.integers(0, 4)),) * 2, zeros=rng.random())


@given(_square())
def test_inverse_matches_k_level_elimination(m):
    assert m.is_invertible() == k_reference.k_is_invertible(m)
    if m.is_invertible():
        assert m.inverse() == k_reference.k_inverse(m)
    else:
        with pytest.raises(ZeroDivisionError):
            m.inverse()


# -- one End(M) per node ---------------------------------------------------------


def test_one_end_algebra_per_node_and_no_radical_where_a_basis_element_splits(GP2, monkeypatch):
    calls = {"hom_space": 0, "brute_decompose": 0}
    radical_nodes, leaves = [], []
    radical_basis, brute_decompose = homalg.radical_basis, homalg.brute_decompose

    def counting_hom_space(m1, m2):
        calls["hom_space"] += 1
        return hom_space(m1, m2)

    def recording_radical(alg):
        radical_nodes.append(alg.rep)
        return radical_basis(alg)

    def recording_decompose(rep):
        calls["brute_decompose"] += 1
        parts = brute_decompose(rep)
        if parts == [rep]:
            leaves.append(rep)
        return parts

    monkeypatch.setattr(homalg, "hom_space", counting_hom_space)
    monkeypatch.setattr(homalg, "radical_basis", recording_radical)
    monkeypatch.setattr(homalg, "brute_decompose", recording_decompose)
    # a planted sum with End(M) of dimension 38: deciding locality before
    # trying the basis elements runs the radical chain at two of its nodes
    # that then split
    rep = _conjugated_sum(GP2, random.Random("one-end/GP2"), 12)
    parts = homalg.brute_decompose(rep)
    assert sum(part.dim() for part in parts) == rep.dim() and len(parts) > 1
    assert calls["hom_space"] == calls["brute_decompose"] > 1
    # the radical runs only on nodes that turn out indecomposable
    assert all(any(node is leaf for leaf in leaves) for node in radical_nodes)


# -- the exhaustive idempotent scan ------------------------------------------------


def _full_product_scan(alg):
    """The scan that multiplies every candidate e out in full before comparing
    e*e with e."""
    p = alg.p
    id_coords = alg.coords(mat_identity(alg.amb, p))
    for code in range(p**alg.dim):
        coeffs = [(code // p**i) % p for i in range(alg.dim)]
        if not any(coeffs) or coeffs == id_coords:
            continue
        e = alg.element(coeffs)
        if mat_mul(e, e, p) == e:
            return coeffs
    return None


def test_the_row_by_row_idempotent_scan_matches_the_full_product_scan(GP2):
    # the parts of the planted GP2 sum below are local (End of dimension 2,
    # 6 and 10), so both scans run to the end; two of them summed have a
    # splitting idempotent, and so do small conjugated sums
    rep = _conjugated_sum(GP2, random.Random("one-end/GP2"), 12)
    parts = homalg.brute_decompose(rep)
    modules = parts + [homalg.direct_sum(parts[0], parts[1])]
    modules += [_conjugated_sum(GP2, random.Random(f"idempotent/{k}"), 3) for k in range(6)]
    found = 0
    for module in modules:
        alg = EndAlgebra(module)
        if alg.dim > 12:
            continue
        want = _full_product_scan(alg)
        assert homalg._idempotent_exhaustive(alg) == want
        found += want is not None
    assert 0 < found < len(modules)


# -- one locality test -------------------------------------------------------------


@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_the_radical_locality_test_matches_the_exhaustive_scan(name, seed, kdim):
    # _is_local decides by End/rad alone; wherever the scan over all of End(M)
    # is feasible, it must find a nontrivial idempotent exactly when End(M)
    # is not local
    pres = _pres(name)
    rep = _conjugated_sum(pres, random.Random(seed), kdim)
    if rep.prime_dim() > homalg.BRUTE_LIMIT:
        return
    alg = EndAlgebra(rep)
    if alg.dim == 1 or alg.p**alg.dim > 1 << 16:
        return
    assert homalg._is_local(alg) == (homalg._idempotent_exhaustive(alg) is None)
