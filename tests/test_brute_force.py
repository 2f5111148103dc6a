"""Brute-force oracles: every span is enumerated vector by vector.

Prime-field subspaces and semilinear relations are checked over p = 2 (one-bit
slots) and p = 3 and 5 (byte slots) with ambient dimension at most 6 (4 for
p = 5); the K-level elimination is checked over GF(4) and GF(9).
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish.errors import SpaceMismatch
from clannish.fields import Aut, make_field
from clannish.linalg import Matrix, Subspace
from clannish.relations import SemilinearRelation
from k_reference import coords_in_basis, k_rref


def _span(vectors, p, width):
    """Every F_p-combination of the vectors, as a set of tuples."""
    out = {(0,) * width}
    for v in vectors:
        out = {tuple((x + c * y) % p for x, y in zip(u, v)) for u in out for c in range(p)}
    return out


def _members(space):
    """Every vector of the ambient space that the subspace contains."""
    return {
        v for v in itertools.product(range(space.p), repeat=space.ambient) if space.contains(v)
    }


@st.composite
def _vectors(draw, p, width):
    return draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(tuple),
            max_size=4,
        )
    )


@st.composite
def _subspace_pair(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 6 if p < 5 else 4))
    return p, d, draw(_vectors(p, d)), draw(_vectors(p, d))


@given(_subspace_pair())
def test_subspace_ops_match_enumeration(case):
    p, d, us, ws = case
    u, w = Subspace(p, d, us), Subspace(p, d, ws)
    span_u, span_w = _span(us, p, d), _span(ws, p, d)
    assert _members(u) == span_u
    assert p ** u.dim == len(span_u)
    assert _members(u.sum(w)) == _span(us + ws, p, d)
    assert _members(u.intersect(w)) == span_u & span_w
    assert (u == w) == (span_u == span_w)


def _relation(field, src, tgt, rows):
    space = Subspace(field.p, src + tgt, rows)
    return SemilinearRelation(field, Aut(field, 0), src, tgt, space)


@st.composite
def _relation_triple(draw):
    """Relations R: U -> V and S: V -> W and a subspace of U, ambient <= 6."""
    p = draw(st.sampled_from([2, 3, 5]))
    u, v, w = (draw(st.integers(1, 3 if p < 5 else 2)) for _ in range(3))
    return (
        p,
        (u, v, w),
        draw(_vectors(p, u + v)),
        draw(_vectors(p, v + w)),
        draw(_vectors(p, u)),
    )


@given(_relation_triple())
def test_relation_ops_match_enumeration(case):
    p, (u, v, w), r_rows, s_rows, sub_rows = case
    field = make_field(p, 1)
    r, s = _relation(field, u, v, r_rows), _relation(field, v, w, s_rows)
    pairs_r = _span(r_rows, p, u + v)
    pairs_s = _span(s_rows, p, v + w)
    sub = _span(sub_rows, p, u)

    image = {x[u:] for x in pairs_r if x[:u] in sub}
    assert _members(r.image(Subspace(p, u, sub_rows))) == image

    assert _members(r.inverse().space) == {x[u:] + x[:u] for x in pairs_r}

    after = {}
    for x in pairs_s:
        after.setdefault(x[:v], set()).add(x[v:])
    composite = {x[:u] + z for x in pairs_r for z in after.get(x[u:], ())}
    assert _members(s.compose(r).space) == composite


def test_packed_form_tells_odd_subspaces_apart():
    """Over GF(3), packed() is as faithful as the rows: equal subspaces pack
    alike and distinct ones differ."""
    vectors = list(itertools.product(range(3), repeat=3))
    packs = {}
    for a, b in itertools.combinations_with_replacement(vectors, 2):
        space = Subspace(3, 3, [a, b])
        packs.setdefault(frozenset(_members(space)), set()).add(space.packed())
    assert len(packs) == 1 + 13 + 13
    assert all(len(forms) == 1 for forms in packs.values())
    assert len({forms.pop() for forms in packs.values()}) == len(packs)
    assert Subspace(3, 2, [[1, 2]]).packed() != Subspace(3, 2, [[1, 0]]).packed()


def _k_span(rows, field, width):
    """Every K-combination of the rows, as a set of tuples."""
    out = set()
    for coeffs in itertools.product(list(field.elements()), repeat=len(rows)):
        acc = [field.zero()] * width
        for c, row in zip(coeffs, rows):
            acc = [a + c * x for a, x in zip(acc, row)]
        out.add(tuple(acc))
    return out


@st.composite
def _k_matrix(draw, square=False):
    field = make_field(*draw(st.sampled_from([(2, 2), (3, 2)])))
    nrows = draw(st.integers(1, 3))
    ncols = nrows if square else draw(st.integers(1, 3))
    codes = draw(
        st.lists(
            st.lists(st.integers(0, field.q - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return field, [[field.el(c) for c in row] for row in codes]


@given(_k_matrix())
def test_k_rref_is_reduced_basis_of_the_row_space(case):
    field, rows = case
    width = len(rows[0])
    pivots, red = k_rref(rows)
    assert _k_span(red, field, width) == _k_span(rows, field, width)
    assert len(_k_span(red, field, width)) == field.q ** len(red)
    assert pivots == sorted(set(pivots))
    for c, row in zip(pivots, red):
        assert not any(row[:c]) and row[c] == field.one()
        assert all(not other[c] for other in red if other is not row)


@given(_k_matrix(square=True))
def test_inverse_and_singular_input(case):
    field, rows = case
    nn = len(rows)
    m = Matrix(field, rows)
    kernel = [
        x
        for x in itertools.product(list(field.elements()), repeat=nn)
        if any(x) and not any(m.apply_row(x))
    ]
    assert m.is_invertible() == (not kernel)
    if kernel:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert m @ m.inverse() == Matrix.identity(field, nn)


@given(_k_matrix(), st.data())
def test_coordinates_in_a_basis(case, data):
    field, rows = case
    basis = Matrix(field, k_rref(rows)[1], ncols=len(rows[0]))
    span = _k_span(basis.rows, field, basis.ncols)
    codes = data.draw(st.lists(st.integers(0, field.q - 1), min_size=basis.ncols, max_size=basis.ncols))
    vector = tuple(field.el(c) for c in codes)
    if vector in span:
        x = coords_in_basis(field, basis, vector)
        assert Matrix(field, [x]) @ basis == Matrix(field, [vector])
    else:
        with pytest.raises(SpaceMismatch):
            coords_in_basis(field, basis, vector)
