import random

import pytest

from clannish.errors import ClannishError, NotStabilized, SpaceMismatch
from clannish.fields import Aut, make_field
from clannish import relations
from clannish.linalg import Matrix, Subspace, expand_vector
from clannish.relations import SemilinearRelation, arrow_relation, check_stable_image_laws
from clannish.skewquad import SkewQuadratic
from relation_laws import check_one_relation_laws, check_symmetric_band_rewriting, k_dimension


def graph_of(field, sigma, rows):
    return SemilinearRelation.graph(field, sigma, Matrix(field, rows))


def test_inverse_is_involution(F4):
    rel = graph_of(F4, F4.frobenius(1), [[F4.gen(), 1], [0, 1]])
    assert rel.inverse().inverse() == rel


def test_compose_graphs_pointwise(F4, F5):
    rng = random.Random(2)
    for f in (F4, F5):
        elems = list(f.elements())
        for _ in range(3):
            m1 = Matrix(f, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            m2 = Matrix(f, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            s1, s2 = f.frobenius(1), f.frobenius(f.n - 1)
            g1 = SemilinearRelation.graph(f, s1, m1)
            g2 = SemilinearRelation.graph(f, s2, m2)
            comp = g2.compose(g1)  # first g1, then g2
            assert comp.sigma == s2 * s1
            for _ in range(4):
                v = tuple(rng.choice(elems) for _ in range(2))
                mid = m1.apply_row(tuple(s1(x) for x in v))
                out = m2.apply_row(tuple(s2(x) for x in mid))
                pair = expand_vector(f, v) + expand_vector(f, out)
                assert comp.space.contains(pair)
            assert comp.space.dim == 2 * f.n  # still a graph


def test_apply_zero_map(F2):
    rel = graph_of(F2, Aut(F2, 0), [[0, 0], [0, 0]])
    img = rel.image(Subspace.full(2, 2))
    assert img.dim == 0


def test_stable_pair_identity_and_full(F2):
    ident = SemilinearRelation.identity(F2, 2)
    lower, upper = ident.stable_pair()
    assert upper == Subspace.full(2, 2)
    assert lower.dim == 0
    full = SemilinearRelation(
        F2, Aut(F2, 0), 2, 2, Subspace.full(2, 4)
    )
    lower, upper = full.stable_pair()
    assert upper == Subspace.full(2, 2) and lower == Subspace.full(2, 2)


def test_stable_pair_nilpotent_oracle(F2):
    # graph of N = [[0,1],[0,0]] on GF(2)^2: forward chains die, so both the
    # stable image and stable kernel vanish; the inverse relation fills up
    rel = graph_of(F2, Aut(F2, 0), [[0, 1], [0, 0]])
    lower, upper = rel.stable_pair()
    assert upper.dim == 0 and lower.dim == 0
    ilower, iupper = rel.inverse().stable_pair()
    assert iupper == Subspace.full(2, 2)
    assert ilower == Subspace.full(2, 2)
    check_stable_image_laws(rel)


def test_stable_pair_matches_direct_iteration(F2, F4):
    rng = random.Random(9)
    for f in (F2, F4):
        elems = list(f.elements())
        for _ in range(6):
            m = Matrix(f, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
            rel = SemilinearRelation.graph(f, f.frobenius(1 % f.n), m)
            lower, upper = rel.stable_pair()
            # direct fixed-point iteration oracle
            seen = rel.full_source()
            for _ in range(2 * f.n * 2 + 2):
                seen = rel.image(seen)
            assert seen == upper
            seen = rel.zero_source()
            for _ in range(2 * f.n * 2 + 2):
                seen = rel.image(seen)
            assert seen == lower
            check_stable_image_laws(rel)


def test_q_bound_graph(F4, E1):
    q = SkewQuadratic(F4, F4.frobenius(1), 0, 1)
    rel = graph_of(F4, F4.frobenius(1), [[1]])
    assert rel.is_q_bound(q)
    # a graph of f with q(f) != 0 is not q-bound
    rel_bad = graph_of(F4, Aut(F4, 0), [[F4.gen()]])
    q_id = SkewQuadratic(F4, Aut(F4, 0), 0, 1)
    assert not rel_bad.is_q_bound(q_id)
    zero_rel = SemilinearRelation.zero(F4, 1, 1)
    assert zero_rel.is_q_bound(q)


def test_special_loop_relations_q_bound(E1, A4):
    from clannish.examples import module_catalog

    for pres in (E1, A4):
        for desc, module, rep in module_catalog(pres, max_string_len=3, max_band_period=4):
            for s, q in pres.special.items():
                if rep.dims[pres.arrows[s].source] == 0:
                    continue
                rel = arrow_relation(rep, s)
                assert rel.is_q_bound(q)


def test_one_relation_laws_on_bundles(E1, A4):
    from clannish.examples import module_catalog

    rng = random.Random(13)
    for pres in (E1, A4):
        for desc, module, rep in module_catalog(pres, max_string_len=3, max_band_period=4)[:6]:
            for s, q in pres.special.items():
                d = rep.dims[pres.arrows[s].source]
                if d == 0:
                    continue
                rel = arrow_relation(rep, s)
                big = Subspace.full(pres.field.p, d * pres.field.n)
                small_vecs = []
                for _ in range(2):
                    v = tuple(rng.choice(list(pres.field.elements())) for _ in range(d))
                    small_vecs.append(expand_vector(pres.field, v))
                    # close under the K-action so the subspace is K-stable
                    g = pres.field.multiplicative_generator()
                    small_vecs.append(expand_vector(pres.field, tuple(g * x for x in v)))
                small = Subspace(pres.field.p, d * pres.field.n, small_vecs)
                check_one_relation_laws(rel, q, small, big)


def test_symmetric_band_rewriting_identity(E1):
    from clannish.examples import module_catalog

    # X = s^-1 and Y = A^-1 t^-1 A for the symmetric band over the module
    for desc, module, rep in module_catalog(E1):
        if not (desc.word.shape == "zper" and desc.symmetric):
            continue
        s_rel = arrow_relation(rep, "s", inverse=True)
        a_rel = arrow_relation(rep, "a")
        y_rel = a_rel.inverse().compose(arrow_relation(rep, "s", inverse=True)).compose(a_rel)
        check_symmetric_band_rewriting(s_rel, y_rel)


def test_k_dimension_checks_stability(F4):
    space = Subspace(2, 4, [[1, 0, 0, 0]])
    with pytest.raises(Exception):
        k_dimension(F4, space)


def test_iteration_that_never_stabilizes_raises_a_typed_error():
    a, b = Subspace(3, 2, [[1, 0]]), Subspace(3, 2, [[0, 1]])

    def flip(space):
        return b if space == a else a

    with pytest.raises(NotStabilized) as info:
        relations._iterate(flip, a)
    assert isinstance(info.value, ClannishError)


def test_image_of_a_subspace_over_another_prime_is_refused():
    f2 = make_field(2, 1)
    rel = SemilinearRelation(f2, Aut(f2, 0), 2, 2, Subspace(2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]]))
    with pytest.raises(SpaceMismatch):
        rel.image(Subspace(3, 2, [[1, 2]]))
