import pytest

from clannish.errors import InvalidParameterMatrix, NotEndAdmissible, PreconditionViolated
from clannish.filtration import candidate_descriptors
from clannish.linalg import Matrix
from clannish.presentation import Letter
from clannish.skewquad import classify_quadratic
from clannish.walks import (
    ASYM_BAND,
    ASYM_STRING,
    SYM_BAND,
    SYM_STRING,
    build_module,
    canonical_walk,
    finite_walk,
    indecomposable_band_parameters,
    make_rw_module,
    pi_automorphisms,
    quiver_of_walk,
    reduce_index,
    rw_descriptor,
    special_direct_walk,
    special_inverse_walk,
    walk_star,
)
from clannish.words import (
    BandDescriptor,
    StringDescriptor,
    Word,
    finite_word,
    periodic_word,
)
from k_reference import path_action
from library_reference import walk_module, walk_sigma

S = Letter("s", "s")
A = Letter("d", "a")
AI = Letter("i", "a")
SD = Letter("d", "s")
SI = Letter("i", "s")


def test_walk_star_and_quiver_worked_example(E1):
    walk = finite_walk(E1, [SI, AI, SI, AI, SI, A, SD, A, SD])
    star = walk_star(E1, walk)
    assert star.letters == (S, AI, S, AI, S, A, S, A, S)
    q = quiver_of_walk(E1, walk)
    assert q.vertices == tuple(range(10))
    assert q.arrows == (
        (0, 1, "s"), (1, 2, "a"), (2, 3, "s"), (3, 4, "a"), (4, 5, "s"),
        (6, 5, "a"), (7, 6, "s"), (8, 7, "a"), (9, 8, "s"),
    )
    assert all(q.vertex_map[i] == "1" for i in q.vertices)


def test_a_walk_takes_no_star_letter(E1, A4):
    # pi_automorphisms would read s* as inverse and walk_letter_relation as
    # direct, so a walk must orient every star letter
    for pres, letters in ((E1, [S]), (E1, [SD, A, S]), (A4, [Letter("s", "s")])):
        with pytest.raises(PreconditionViolated):
            finite_walk(pres, letters)


def test_a_star_free_word_is_its_own_canonical_walk(E1, GP2, A4, DIEU):
    # a walk is a word, and only a star letter needs orienting
    star_free = 0
    for pres in (E1, GP2, A4, DIEU):
        for desc in candidate_descriptors(pres, 6):
            w = desc.word
            if not any(l.is_star for l in w.letters + w.period):
                assert canonical_walk(pres, w) == w
                star_free += 1
    assert star_free > 100


def test_trivial_walk_quiver(E1):
    q = quiver_of_walk(E1, Word("finite", "1", 1, ()))
    assert q.vertices == (0,) and q.arrows == ()


def test_periodic_walk_quiver_window(E1):
    w = periodic_word(E1, [S, A])
    walk = canonical_walk(E1, w)
    q = quiver_of_walk(E1, walk, window=(-2, 2))
    # all letters direct: arrows i -> i-1
    assert all(src == tgt + 1 for src, tgt, _ in q.arrows)


def test_canonical_walk_symmetric_string(E1):
    w = finite_word(E1, "1", 1, [S, AI, S, A, S, AI, S, A, S])
    cw = canonical_walk(E1, w)
    assert cw.letters == (SI, AI, SI, A, SI, AI, SD, A, SD)
    # canonical walk of s* alone: symmetry at 1 > 0, so inverse
    assert canonical_walk(E1, finite_word(E1, "1", 1, [S])).letters == (SI,)


def test_canonical_walk_requires_end_admissible(E1):
    with pytest.raises(NotEndAdmissible):
        canonical_walk(E1, finite_word(E1, "1", -1, [A]))


def test_special_direct_inverse_walks(E1):
    w = finite_word(E1, "1", 1, [S, A, S])
    assert special_direct_walk(E1, w).letters == (SD, A, SD)
    assert special_inverse_walk(E1, w).letters == (SI, A, SI)


def test_canonical_walk_symmetric_band_two_sided(E1):
    w = periodic_word(E1, [S, A, S, AI, S, AI, S, A])
    cw = canonical_walk(E1, w)
    assert cw.shape == "ztwo"
    # positive side: s a s^-1 a^-1 s^-1 a^-1 s^-1 a
    assert cw.period == (SD, A, SI, AI, SI, AI, SI, A)
    # non-positive side: C_0, C_-1, ... = a, s, a^-1, s^-1, a^-1, s, a, s
    assert cw.neg_period == (A, SD, AI, SI, AI, SD, A, SD)


def test_pi_chain_rule_everywhere(E1, A4):
    for pres, word in (
        (E1, finite_word(E1, "1", 1, [S, AI, S, A, S, AI, S, A, S])),
        (E1, periodic_word(E1, [S, A, S, A, S, AI])),
    ):
        walk = canonical_walk(pres, word)
        lo, hi = (0, 9) if word.shape == "finite" else (-7, 7)
        pi = pi_automorphisms(pres, walk, lo=lo, hi=hi)
        for i in range(lo + 1, hi + 1):
            letter = walk.letter_at(i)
            sig = pres.sigma(letter.name)
            if letter.kind == "d":  # arrow i -> i-1
                assert pi[i - 1] == sig * pi[i]
            else:  # arrow i-1 -> i
                assert pi[i] == sig * pi[i - 1]


def test_pi_frobenius_values(E1):
    # with sigma = theta = Frob on GF(4) the displayed automorphisms reduce
    # to Frobenius powers 0,1,0,1,0
    w = finite_word(E1, "1", 1, [S, AI, S, A, S, AI, S, A, S])
    pi = pi_automorphisms(E1, canonical_walk(E1, w))
    assert [pi[i].k for i in range(5)] == [0, 1, 0, 1, 0]


def test_walk_sigma_matches_band_tau(E1):
    w = periodic_word(E1, [S, A, S, A, S, AI])
    desc = BandDescriptor(w, False)
    spec = rw_descriptor(E1, desc)
    walk = spec.walk
    sigma_c = walk_sigma(E1, [walk.letter_at(i) for i in range(1, 7)])
    assert spec.tau == sigma_c  # pi_0 is the identity


def test_rw_descriptor_kinds(E1):
    f = E1.field
    d1 = StringDescriptor(finite_word(E1, "1", 1, [S, A, S]), False)
    spec1 = rw_descriptor(E1, d1)
    assert spec1.kind == ASYM_STRING and spec1.Jw == (0, 1, 2, 3)

    d2 = StringDescriptor(finite_word(E1, "1", 1, [S]), True)
    spec2 = rw_descriptor(E1, d2)
    assert spec2.kind == SYM_STRING and spec2.Jw == (0,)
    assert spec2.tau == f.frobenius(1)
    assert (spec2.q_x.beta, spec2.q_x.gamma) == (f.zero(), f.one())

    d3 = BandDescriptor(periodic_word(E1, [S, A, S, A, S, AI]), False)
    spec3 = rw_descriptor(E1, d3)
    assert spec3.kind == ASYM_BAND and spec3.Jw == tuple(range(6))
    assert spec3.tau.is_identity  # exponent 1+1+1+1+1-1 = 4 = 0 mod 2

    d4 = BandDescriptor(periodic_word(E1, [S, A, S, AI, S, AI, S, A]), True)
    spec4 = rw_descriptor(E1, d4)
    assert spec4.kind == SYM_BAND
    assert (spec4.p, spec4.r) == (1, 2)
    assert spec4.Jw == (-1, 0, 1, 2)
    assert spec4.tau == f.frobenius(1) and spec4.rho == f.frobenius(1)
    assert (spec4.q_x.beta, spec4.q_x.gamma) == (f.zero(), f.one())
    assert (spec4.q_y.beta, spec4.q_y.gamma) == (f.zero(), f.one())


def test_twisted_quadratics_stay_normal_nonsingular(E1, A4):
    from clannish.words import enumerate_bands, enumerate_strings

    for pres in (E1, A4):
        for d in enumerate_strings(pres, 5) + enumerate_bands(pres, 6):
            spec = rw_descriptor(pres, d)
            for q in (spec.q_x, spec.q_y):
                if q is None:
                    continue
                rep = classify_quadratic(q)
                assert rep.is_normal and rep.is_nonsingular


def test_reduce_index_examples(E1):
    # symmetric string of length 9 (k = 4): b_7 = b_2 x
    w = finite_word(E1, "1", 1, [S, AI, S, A, S, AI, S, A, S])
    spec = rw_descriptor(E1, StringDescriptor(w, True))
    assert reduce_index(spec, 7) == (2, ("x",))
    assert reduce_index(spec, 3) == (3, ())
    # asymmetric band of period 6: b_8 = b_2 x^-1
    bd = BandDescriptor(periodic_word(E1, [S, A, S, A, S, AI]), False)
    specb = rw_descriptor(E1, bd)
    assert reduce_index(specb, 8) == (2, ("x-1",))
    assert reduce_index(specb, -1) == (5, ("x",))
    assert reduce_index(specb, 3) == (3, ())
    # symmetric band with p = 1, r = 2: alternating monomials
    sd = BandDescriptor(periodic_word(E1, [S, A, S, AI, S, AI, S, A]), True)
    specs = rw_descriptor(E1, sd)
    assert reduce_index(specs, 3) == (2, ("x",))
    assert reduce_index(specs, -2) == (-1, ("y",))
    assert reduce_index(specs, 8) == (0, ("y", "x"))
    assert reduce_index(specs, 0) == (0, ())


def test_reduce_index_consistent_with_actions(E1):
    # b_i z and b_j agree as module elements: check via the built module,
    # walking one step at a time through the defining rules
    sd = BandDescriptor(periodic_word(E1, [S, A, S, AI, S, AI, S, A]), True)
    spec = rw_descriptor(E1, sd)
    qx = classify_quadratic(spec.q_x)
    qy = classify_quadratic(spec.q_y)
    module = make_rw_module(spec, lam=qy.simple_modules[0], phi=qx.simple_modules[0])
    rep = build_module(E1, spec, module)
    assert rep.dim() == 4 * module.dim


def test_build_module_spec_examples(E1):
    f = E1.field
    # M(s*) with the unique simple: one dimension, s acts by (Frob, (1))
    spec = rw_descriptor(E1, StringDescriptor(finite_word(E1, "1", 1, [S]), True))
    simple = classify_quadratic(spec.q_x).simple_modules[0]
    rep = build_module(E1, spec, make_rw_module(spec, lam=simple))
    assert rep.dims == {"1": 1}
    assert rep.mats["s"] == Matrix(f, [[1]])
    assert rep.mats["a"].is_zero()
    assert rep.check_relations()

    # M(s*as*): 4-dimensional chain
    spec2 = rw_descriptor(E1, StringDescriptor(finite_word(E1, "1", 1, [S, A, S]), False))
    rep2 = build_module(E1, spec2, make_rw_module(spec2, dim=1))
    assert rep2.dim() == 4
    assert rep2.check_relations()
    assert rep2.labels["1"] == [(0, 0), (1, 0), (2, 0), (3, 0)]

    # the period-6 asymmetric band: 6 dimensional
    spec3 = rw_descriptor(E1, BandDescriptor(periodic_word(E1, [S, A, S, A, S, AI]), False))
    rep3 = build_module(E1, spec3, make_rw_module(spec3, lam=Matrix(f, [[1]])))
    assert rep3.dim() == 6
    assert rep3.check_relations()

    # the period-8 symmetric band: 4 dimensional
    spec4 = rw_descriptor(E1, BandDescriptor(periodic_word(E1, [S, A, S, AI, S, AI, S, A]), True))
    rep4 = build_module(
        E1,
        spec4,
        make_rw_module(
            spec4,
            lam=classify_quadratic(spec4.q_y).simple_modules[0],
            phi=classify_quadratic(spec4.q_x).simple_modules[0],
        ),
    )
    assert rep4.dim() == 4
    assert rep4.check_relations()


def test_build_module_dimension_formula(E1, GP2, A4, DIEU):
    from clannish.examples import module_catalog

    for pres in (E1, GP2, A4, DIEU):
        for desc, module, rep in module_catalog(pres):
            spec = rw_descriptor(pres, desc)
            assert rep.dim() == len(spec.Jw) * module.dim
            assert rep.check_relations()


def test_invalid_parameters_rejected(E1):
    f = E1.field
    spec = rw_descriptor(E1, StringDescriptor(finite_word(E1, "1", 1, [S]), True))
    with pytest.raises(InvalidParameterMatrix):
        make_rw_module(spec, lam=Matrix(f, [[0]]))  # not a root
    bd = rw_descriptor(E1, BandDescriptor(periodic_word(E1, [S, A, S, A, S, AI]), False))
    with pytest.raises(InvalidParameterMatrix):
        make_rw_module(bd, lam=Matrix(f, [[0]]))  # not invertible


def test_rw_descriptor_rejects_bad_words(E1, GP2):
    from clannish.errors import PreconditionViolated

    x = Letter("d", "x")
    xxx = BandDescriptor(periodic_word(GP2, [x, x, x], check=False), False)
    with pytest.raises(PreconditionViolated):
        rw_descriptor(GP2, xxx)  # contains the zero relation xxx
    doubled = BandDescriptor(periodic_word(E1, [S, A, S, A]), False)
    with pytest.raises(PreconditionViolated):
        rw_descriptor(E1, doubled)  # block is a proper power


def test_a_band_module_inverts_its_parameter_matrix_once(GP2, E1, monkeypatch):
    # an inverse generator acts once per basis coordinate at each seam index,
    # so twice or more on a 2x2 parameter; its matrix is fixed for the module
    # and inverted once
    from clannish.examples import module_catalog

    inverse, calls = Matrix.inverse, []
    monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or inverse(m))
    twice_or_more = 0
    for pres in (GP2, E1):
        for desc, module, rep in module_catalog(pres, 0, 4):
            if desc.word.shape != "zper":
                continue
            calls.clear()
            assert build_module(pres, module.spec, module) == rep
            assert len(calls) <= 1 and all(m is module.lam for m in calls)
            twice_or_more += bool(calls) and module.dim > 1
    assert twice_or_more


def test_band_parameters_helper(GP2, E1):
    bd = rw_descriptor(GP2, BandDescriptor(periodic_word(GP2, [Letter("d", "x"), Letter("i", "y")]), False))
    assert bd.tau.is_identity
    params = indecomposable_band_parameters(bd, 2)
    # x - c for c != 0 gives 1x1 units; one irreducible quadratic over GF(2)
    dims = sorted(m.nrows for m in params)
    assert dims == [1, 2, 2]
    for m in params:
        assert m.is_invertible()


def test_walk_module_and_rank_drop(E1, GP2):
    # relation-admissible words: all defining relations vanish on M(C)
    walk = finite_walk(E1, [SI, A, SI])
    rep = walk_module(E1, walk)
    assert rep.dim() == 4 and rep.check_relations()
    # ss acts as the identity on M(C) since s^2 = e in this algebra
    act = path_action(rep, ("s", "s"))
    assert act.matrix == Matrix.identity(E1.field, 4)

    # non-relation-admissible word: some zero relation acts nonzero
    x = Letter("d", "x")
    bad = finite_walk(GP2, [x, x, x])  # word xxx contains the relation xxx
    rep_bad = walk_module(GP2, bad)
    assert not rep_bad.check_relations()


def test_path_action_examples(E1):
    spec = rw_descriptor(E1, StringDescriptor(finite_word(E1, "1", 1, [S]), True))
    simple = classify_quadratic(spec.q_x).simple_modules[0]
    rep = build_module(E1, spec, make_rw_module(spec, lam=simple))
    triv = path_action(rep, (), vertex="1")
    assert triv.sigma.is_identity and triv.matrix == Matrix.identity(E1.field, 1)
    ss = path_action(rep, ("s", "s"))
    assert ss.matrix == Matrix.identity(E1.field, 1)
    aa = path_action(rep, ("a", "a"))
    assert aa.matrix.is_zero()
