import random

import pytest

from clannish.errors import PreconditionViolated
from clannish.examples import module_catalog
from clannish.filtration import f_dim, multiplicities, walk_plus_minus
from clannish.homalg import direct_sum
from clannish.linalg import Subspace, is_k_stable
from clannish.presentation import Letter
from clannish.reps import Representation
from clannish.skewquad import classify_quadratic
from clannish.walks import (
    build_module,
    canonical_walk,
    make_rw_module,
    rw_descriptor,
    special_direct_walk,
    special_inverse_walk,
)
from clannish.words import (
    StringDescriptor,
    Word,
    compare,
    enumerate_strings,
    finite_word,
    invert_word,
    is_right_end_admissible,
    periodic_word,
)

S = Letter("s", "s")
A = Letter("d", "a")
AI = Letter("i", "a")


def m_of_star(E1):
    spec = rw_descriptor(E1, StringDescriptor(finite_word(E1, "1", 1, [S]), True))
    simple = classify_quadratic(spec.q_x).simple_modules[0]
    return build_module(E1, spec, make_rw_module(spec, lam=simple))


def test_walk_plus_minus_star_module(E1):
    # on M(s*) the walk D = s^-1 has D+ = everything and D- = 0 since a = 0
    rep = m_of_star(E1)
    walk = canonical_walk(E1, finite_word(E1, "1", 1, [S]))
    plus, minus = walk_plus_minus(rep, walk)
    assert plus == Subspace.full(2, rep.prime_dim("1"))
    assert minus.dim == 0


def test_walk_plus_minus_trivial_walk(E1, GP2):
    from clannish.errors import NotRightEndAdmissible

    rep = m_of_star(E1)
    # with the special loop signed +1 at this vertex, only eps = -1 lies in H
    plus, minus = walk_plus_minus(rep, Word("finite", "1", -1, ()))
    assert minus.dim == 0
    assert plus == Subspace.full(2, rep.prime_dim("1"))
    with pytest.raises(NotRightEndAdmissible):
        walk_plus_minus(rep, Word("finite", "1", 1, ()))
    # without special loops both signs work; x has sign +1 and y sign -1
    gp_mod = [r for _, _, r in module_catalog(GP2, max_string_len=2, max_band_period=2)][1]
    for eps in (1, -1):
        plus, minus = walk_plus_minus(gp_mod, Word("finite", "1", eps, ()))
        assert minus <= plus


def test_walk_plus_minus_band_tail_stable(E1):
    spec = rw_descriptor(
        E1,
        __import__("clannish.words", fromlist=["BandDescriptor"]).BandDescriptor(
            periodic_word(E1, [S, A]), False
        ),
    )
    from clannish.linalg import Matrix

    rep = build_module(E1, spec, make_rw_module(spec, lam=Matrix(E1.field, [[1]])))
    from clannish.words import suffix

    tail = suffix(E1, spec.walk, 0)
    plus, minus = walk_plus_minus(rep, tail)
    assert minus <= plus
    assert is_k_stable(rep.field, plus) and is_k_stable(rep.field, minus)


def test_f_dim_evaluation_on_catalog(E1, GP2, A4, DIEU):
    for pres in (E1, GP2, A4, DIEU):
        for desc, module, rep in module_catalog(pres, max_string_len=3, max_band_period=4):
            report = f_dim(rep, desc)
            assert report.f_dim == module.dim, (repr(desc.word), report)


def test_f_dim_reads_a_descriptor_its_shape_or_its_spec(E1, A4):
    from clannish.walks import walk_shape

    for pres in (E1, A4):
        for desc, _, rep in module_catalog(pres, 3, 2):
            want = f_dim(rep, desc)
            assert f_dim(rep, walk_shape(pres, desc)) == want
            assert f_dim(rep, rw_descriptor(pres, desc)) == want


def test_f_dim_independent_of_index(E1):
    for desc, module, rep in module_catalog(E1):
        spec = rw_descriptor(E1, desc)
        base = f_dim(rep, spec)
        for idx in list(spec.Jw)[1:]:
            assert f_dim(rep, spec, index=idx).f_dim == base.f_dim


@pytest.mark.parametrize("shape", ["finite", "zper"])
def test_f_dim_rejects_an_index_outside_j_w(GP2, shape):
    # a string's word has indices 0..n and a band's all of Z, but f_dim is
    # defined at the indices of J_w alone; a bad index does no filtration work
    desc, _, rep = next(
        c for c in module_catalog(GP2)
        if c[0].word.shape == shape and len(c[0].word.letters + c[0].word.period) == 2
    )
    spec = rw_descriptor(GP2, desc)
    fresh = Representation(GP2, rep.dims, rep.mats)
    n = 2
    for idx in (-1, n + 1, 7, min(spec.Jw) - 1, max(spec.Jw) + 1):
        with pytest.raises(PreconditionViolated):
            f_dim(fresh, spec, index=idx)
        with pytest.raises(PreconditionViolated):
            f_dim(fresh, desc, index=idx)
    assert not fresh._images and not fresh._roots
    assert f_dim(fresh, spec, index=max(spec.Jw)).f_dim == f_dim(rep, spec).f_dim


def test_f_dim_additive_on_sums(E1):
    cat = module_catalog(E1)
    (d1, m1, r1), (d2, m2, r2) = cat[0], cat[1]
    both = direct_sum(r1, r2)
    for desc in (d1, d2):
        assert f_dim(both, desc).f_dim == f_dim(r1, desc).f_dim + f_dim(r2, desc).f_dim


def test_multiplicities_example(E1):
    cat = {repr(d.word): rep for d, mod, rep in module_catalog(E1)}
    m = direct_sum(cat["s*"], cat["s*as*"])
    report = multiplicities(m)
    assert report.complete and report.checksum == 5
    got = {repr(d.word): (rank, f) for d, rank, f in report.entries}
    assert got == {"s*": (1, 1), "s*as*": (4, 1)}


def test_multiplicities_double_summand(E1):
    cat = {repr(d.word): rep for d, mod, rep in module_catalog(E1)}
    m = direct_sum(cat["s*as*"], cat["s*as*"])
    report = multiplicities(m)
    assert report.complete
    assert {repr(d.word): f for d, _, f in report.entries} == {"s*as*": 2}


def test_one_sided_filtration_monotonicity(E1, GP2):
    # D_w^- <= D_w^+ and w < z implies D_w^+ <= D_z^-; same for inverse walks
    rng = random.Random(23)
    checked = 0
    for pres in (E1, GP2):
        mods = [rep for _, _, rep in module_catalog(pres, max_string_len=3, max_band_period=3)]
        words = []
        for d in enumerate_strings(pres, 5):
            for w in (d.word, invert_word(pres, d.word)):
                if is_right_end_admissible(pres, w):
                    words.append(w)
        groups = {}
        for w in words:
            groups.setdefault((w.v0, w.eps), []).append(w)
        for (v0, eps), group in groups.items():
            for _ in range(10):
                w, z = rng.choice(group), rng.choice(group)
                if compare(pres, w, z) > 0:
                    w, z = z, w
                rep = rng.choice(mods)
                for maker in (special_direct_walk, special_inverse_walk):
                    pw, mw = walk_plus_minus(rep, maker(pres, w))
                    pz, mz = walk_plus_minus(rep, maker(pres, z))
                    assert mw <= pw
                    if compare(pres, w, z) < 0:
                        assert pw <= mz
                    checked += 1
    assert checked >= 40


def test_vertex_prefilter_keeps_report_complete(A4):
    for desc, module, rep in module_catalog(A4, max_string_len=3, max_band_period=4)[:5]:
        report = multiplicities(rep)
        assert report.complete


def test_orientation_exchange_dims_agree(E1):
    # the direct, canonical, and inverse orientations give the same functor
    # dimension on test modules (orientation invariance)
    from clannish.words import prefix_inverse, suffix
    from clannish.linalg import k_dim

    def dims_for(rep, walk, Jw):
        out = []
        for i in (min(Jw), max(Jw)):
            after = suffix(E1, walk, i)
            before = prefix_inverse(E1, walk, i)
            dp, dm = walk_plus_minus(rep, after)
            ep, em = walk_plus_minus(rep, before)
            top = dp.intersect(ep)
            bottom = dp.intersect(em).sum(dm.intersect(ep))
            out.append((k_dim(rep.field, top) - k_dim(rep.field, bottom)))
        return out

    for desc, module, rep in module_catalog(E1):
        spec = rw_descriptor(E1, desc)
        word = desc.word
        expected = f_dim(rep, spec).f_dim
        for maker in (special_direct_walk, special_inverse_walk):
            walk = maker(E1, word)
            vals = dims_for(rep, walk, spec.Jw)
            assert all(v == expected for v in vals), (repr(word), maker.__name__, vals)
