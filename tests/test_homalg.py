import itertools
import random

import pytest

from clannish import homalg
from clannish.errors import OracleFailure, SpaceMismatch, TooLarge
from clannish.examples import module_catalog
from clannish.filtration import f_dim, multiplicities
from clannish.homalg import (
    EndAlgebra,
    _find_splitting_idempotent,
    _idempotent_exhaustive,
    _one_irreducible_factor,
    _quotient_is_field,
    _splitting_idempotent_from,
    brute_decompose,
    charpoly,
    direct_sum,
    hom_space,
    is_indecomposable,
    min_poly,
    radical_basis,
)
from clannish.linalg import (
    Matrix,
    _unpack,
    join_rows,
    k_matrix,
    mat_identity,
    mat_is_zero,
    mat_mul,
    pack_matrix,
    slot_bits,
)
from clannish.reps import Representation
from library_reference import are_isomorphic


def _charpoly_oracle(mat, p):
    """det(tI - A) by permutation expansion; entries are degree <= 1 polys."""
    n = len(mat)
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle count
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        poly = [1]
        for i in range(n):
            entry = [(-mat[i][perm[i]]) % p] + ([1] if perm[i] == i else [])
            new = [0] * (len(poly) + len(entry) - 1)
            for a, x in enumerate(poly):
                for b, y in enumerate(entry):
                    new[a + b] = (new[a + b] + x * y) % p
            poly = new
        poly = poly + [0] * (n + 1 - len(poly))
        total = [(t + sign * c) % p for t, c in zip(total, poly)]
    return total


def test_charpoly_against_expansion():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                assert charpoly(mat, p) == _charpoly_oracle(mat, p)


def test_min_poly_examples():
    # nilpotent Jordan block: minimal polynomial x^2
    assert min_poly(pack_matrix([[0, 1], [0, 0]], 2), 2) == [0, 0, 1]
    assert min_poly(pack_matrix([[1, 0], [0, 1]], 3), 3) == [2, 1]  # x - 1
    # companion of x^2 + x + 1 over GF(2)
    assert min_poly(pack_matrix([[0, 1], [1, 1]], 2), 2) == [1, 1, 1]


def test_one_irreducible_factor():
    rng = random.Random(5)
    # x^2 (x+1) over GF(2)
    assert _one_irreducible_factor([0, 0, 1, 1], 2, rng) in {(0, 1), (1, 1)}
    # x(x-1)(x-2) over GF(3)
    assert _one_irreducible_factor([0, 2, 0, 1], 3, rng) in {(0, 1), (1, 1), (2, 1)}
    # irreducible x^2+x+1 over GF(2)
    assert _one_irreducible_factor([1, 1, 1], 2, rng) == (1, 1, 1)
    # square of an irreducible: (x^2+x+1)^2 = x^4+x^2+1 over GF(2)
    assert _one_irreducible_factor([1, 0, 1, 0, 1], 2, rng) == (1, 1, 1)


def _pool(pres, **kw):
    return module_catalog(pres, **kw)


def _k_basis(hs):
    """The Hom basis read back as per-vertex K-matrices."""
    field = hs.source.field
    return [
        {v: k_matrix(field, b[v], hs.source.dims[v], hs.target.dims[v]) for v in b}
        for b in hs.basis
    ]


def test_direct_sum_dims(E1):
    cat = _pool(E1, max_string_len=3, max_band_period=2)
    m1, m4 = cat[0][2], cat[1][2]
    total = direct_sum(m1, m4)
    assert total.dim() == m1.dim() + m4.dim()
    zero = Representation(E1, {}, {})
    assert direct_sum(m1, zero).dim() == m1.dim()
    assert f_dim(direct_sum(m1, zero), cat[0][0]).f_dim == f_dim(m1, cat[0][0]).f_dim


def test_hom_contains_identity(E1, GP2):
    for pres in (E1, GP2):
        for desc, module, rep in _pool(pres, max_string_len=3, max_band_period=2):
            hs = hom_space(rep, rep)
            ident = {v: Matrix.identity(pres.field, rep.dims[v]) for v in pres.vertices}
            # identity is a solution of the intertwining system
            found = any(b == ident for b in _k_basis(hs)) or hs.dim >= 1
            assert found


def test_hom_intertwines(E1):
    cat = _pool(E1, max_string_len=3, max_band_period=2)
    m1, m2 = cat[0][2], cat[1][2]
    hs = hom_space(m1, m2)
    for b in _k_basis(hs):
        for name in E1.arrow_names:
            info = E1.arrows[name]
            sigma = E1.sigma(name)
            lhs = m1.mats[name] @ b[info.target]
            rhs = sigma(b[info.source]) @ m2.mats[name]
            assert lhs == rhs


def test_hom_dimension_hand_computed(E1):
    # hom(M(s*) (x) simple, M(s*as*)): the intertwining equations force the
    # image into the span of the third and fourth chain generators, with the
    # two coordinates tied by t3 = t2^2; prime-field dimension 2
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    hs = hom_space(cat["s*"], cat["s*as*"])
    assert hs.dim == 2


def test_hom_disjoint_support_nilpotent_composites(E1):
    # modules with disjoint multiplicity support share no summand, so any
    # round trip M -> N -> M is nilpotent
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    m, n = cat["s*"], cat["s*as*"]
    h_mn, h_nm = hom_space(m, n), hom_space(n, m)
    for f in _k_basis(h_mn):
        for g in _k_basis(h_nm):
            comp = {v: f[v] @ g[v] for v in f}
            for v, mat in comp.items():
                power = Matrix.identity(E1.field, mat.nrows)
                for _ in range(mat.nrows):
                    power = power @ mat
                assert power.is_zero()


def test_is_indecomposable_examples(E1):
    cat = _pool(E1, max_string_len=3, max_band_period=2)
    one = cat[0][2]
    assert one.dim() == 1 and is_indecomposable(one)
    four = cat[1][2]
    assert is_indecomposable(four)
    assert not is_indecomposable(direct_sum(four, four))


def test_radical_route_agrees_with_exhaustive(E1, GP2, A4):
    # the characteristic-coefficient radical chain and the exhaustive
    # idempotent scan must agree on locality wherever both are feasible
    for pres in (E1, GP2, A4):
        mods = [rep for _, _, rep in _pool(pres, max_string_len=3, max_band_period=3)]
        mods += [direct_sum(mods[0], mods[min(1, len(mods) - 1)])]
        for rep in mods:
            if rep.dim() == 0 or rep.prime_dim() > 10:
                continue
            alg = EndAlgebra(rep)
            if alg.p ** alg.dim > 1 << 14:
                continue
            exhaust = _idempotent_exhaustive(alg) is None
            rad = radical_basis(alg)
            assert _quotient_is_field(alg, rad) == exhaust, rep


def test_radical_is_nilpotent_ideal(GP2):
    for _, _, rep in _pool(GP2, max_string_len=3, max_band_period=2)[:4]:
        alg = EndAlgebra(rep)
        rad = radical_basis(alg)
        mats = [alg.element(_unpack(b, alg.p, alg.dim)) for b in rad]
        # nilpotency: products of length amb vanish
        for m in mats:
            acc = m
            for _ in range(alg.amb):
                acc = mat_mul(acc, m, alg.p)
            assert mat_is_zero(acc)


def _matrix_algebra_f2():
    """End = M_2(F_2) on F_2^2, with basis I, N12, N21 and C = [[0,1],[1,1]].
    Each of them is a unit or nilpotent, and C^2 - C = I: on this basis the
    Frobenius fixed space reads one-dimensional, as for a field, and only
    the commutators tell that End/rad is not one."""
    alg = EndAlgebra.__new__(EndAlgebra)
    alg.p, alg.amb = 2, 2
    basis = ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [1, 1]])
    alg.flats = [join_rows(pack_matrix(m, 2), 2, 2) for m in basis]
    alg.dim = len(alg.flats)
    return alg


def test_the_locality_test_needs_the_commutators(monkeypatch):
    alg = _matrix_algebra_f2()
    assert radical_basis(alg) == []
    assert _quotient_is_field(alg, []) is False
    units = [[int(j == i) for j in range(alg.dim)] for i in range(alg.dim)]
    assert all(_splitting_idempotent_from(alg, u, random.Random(0)) is None for u in units)

    def nontrivial_idempotent(e):
        return not mat_is_zero(e) and e != mat_identity(2, 2) and mat_mul(e, e, 2) == e

    # the random elements find one; with no element split, the exhaustive scan
    assert nontrivial_idempotent(_find_splitting_idempotent(alg))
    monkeypatch.setattr(homalg, "_splitting_idempotent_from", lambda alg, coeffs, rng: None)
    assert nontrivial_idempotent(_find_splitting_idempotent(alg))


def test_brute_decompose_examples(E1):
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    m = direct_sum(cat["s*"], cat["s*as*"])
    parts = brute_decompose(m)
    assert sorted(p.dim() for p in parts) == [1, 4]
    single = brute_decompose(cat["s*as*"])
    assert len(single) == 1
    with pytest.raises(TooLarge):
        big = cat["s*as*"]
        for _ in range(3):
            big = direct_sum(big, big)
        brute_decompose(big)


def test_krull_schmidt_invariance(E1):
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    a, b = cat["s*"], cat["s*as*"]
    p1 = brute_decompose(direct_sum(a, b))
    p2 = brute_decompose(direct_sum(b, a))
    assert len(p1) == len(p2) == 2
    used = list(p2)
    for part in p1:
        hit = next(i for i, q in enumerate(used) if are_isomorphic(part, q))
        used.pop(hit)
    assert not used


def test_are_isomorphic_examples(E1):
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    a, b = cat["s*"], cat["s*as*"]
    assert are_isomorphic(a, a)
    assert not are_isomorphic(a, b)
    assert are_isomorphic(direct_sum(a, b), direct_sum(b, a))
    assert not are_isomorphic(direct_sum(a, a), direct_sum(a, b))


def test_are_isomorphic_raises_when_search_fails_above_brute_limit(E1):
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    a, b = cat["s*"], cat["s*as*"]
    twice = direct_sum(b, b)  # prime dimension 16
    assert are_isomorphic(twice, direct_sum(b, b))  # the random search decides
    other = direct_sum(direct_sum(b, a), direct_sum(direct_sum(a, a), a))
    with pytest.raises(TooLarge):
        are_isomorphic(twice, other)


def test_oracle_failures_are_typed(E1, monkeypatch):
    cat = {repr(d.word): rep for d, mod, rep in _pool(E1)}
    a, b = cat["s*"], cat["s*as*"]
    alg = EndAlgebra(b)
    outside = mat_identity(alg.amb, alg.p)
    outside[0] |= 1 << slot_bits(alg.p)  # entry (0, 1)
    with pytest.raises(SpaceMismatch):
        alg.coords(outside)
    # End of an indecomposable module is local: no idempotent splits it, so
    # a search told otherwise runs out
    with monkeypatch.context() as patch:
        patch.setattr(homalg, "_is_local", lambda alg: False)
        with pytest.raises(OracleFailure):
            _find_splitting_idempotent(alg)
    assert _find_splitting_idempotent(alg) is None
    # an idempotent that cuts off nothing is caught, not recursed on
    monkeypatch.setattr(
        homalg, "_find_splitting_idempotent", lambda alg: mat_identity(alg.amb, alg.p)
    )
    with pytest.raises(OracleFailure):
        brute_decompose(direct_sum(a, b))


def test_inequivalent_catalog_modules_nonisomorphic(GP2):
    reps = [(d, rep) for d, mod, rep in _pool(GP2, max_string_len=2, max_band_period=2) if mod.dim == 1]
    for (d1, r1), (d2, r2) in itertools.combinations(reps, 2):
        assert not are_isomorphic(r1, r2), (repr(d1.word), repr(d2.word))


def test_oracle_agrees_with_functor_counts(GP2):
    rng = random.Random(41)
    pool = [rep for _, _, rep in _pool(GP2, max_string_len=3, max_band_period=2)]
    for _ in range(6):
        m = rng.choice(pool)
        m = direct_sum(m, rng.choice(pool))
        if m.prime_dim() > 10:
            continue
        parts = brute_decompose(m)
        report = multiplicities(m)
        assert report.complete
        agg = {}
        for part in parts:
            sub = multiplicities(part)
            assert sub.complete and len(sub.entries) == 1
            d, rank, fval = sub.entries[0]
            agg[repr(d.word)] = agg.get(repr(d.word), 0) + fval
        assert agg == {repr(d.word): fv for d, _, fv in report.entries}
