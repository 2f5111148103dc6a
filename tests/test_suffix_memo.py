"""The per-module suffix memo of the walk filtrations, and the reduced bases
that relation images and composites are built from, checked against the
direct algorithms they replace.

The reference below rebuilds D^+ and D^- of a walk from scratch: start
spaces at the walk's end, then the letter relations applied right to left;
a right-infinite walk starts from the stable pair of its period composite,
composed one letter at a time.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish import examples, homalg
from clannish.fields import Aut, make_field
from clannish.filtration import candidate_descriptors, walk_plus_minus
from clannish.linalg import Matrix, Subspace
from clannish.presentation import Letter
from clannish.relations import SemilinearRelation, arrow_relation, walk_letter_relation
from clannish.reps import Representation
from clannish.walks import rw_descriptor, walk_prefix_inverse, walk_star, walk_suffix, walk_vertex

# -- the direct algorithm ------------------------------------------------------


def _apply_letters(rep, letters, space):
    for wl in reversed(letters):
        space = walk_letter_relation(rep, wl).image(space)
    return space


def _start_spaces(rep, walk):
    pres, p = rep.pres, rep.field.p
    word = walk_star(pres, walk)
    n = len(walk.letters)
    v = walk_vertex(pres, walk, n)
    need = -pres.sign(word.letter_at(n).inverse()) if n else word.eps
    plus = Subspace.full(p, rep.prime_dim(v))
    minus = Subspace.zero(p, rep.prime_dim(v))
    for name in pres.ordinary_arrows():
        info = pres.arrows[name]
        if info.source == v and pres.sign(Letter("i", name)) == need:
            plus = arrow_relation(rep, name).preimage(Subspace.zero(p, rep.prime_dim(info.target)))
        if info.target == v and pres.sign(Letter("d", name)) == need:
            minus = arrow_relation(rep, name).image(Subspace.full(p, rep.prime_dim(info.source)))
    return plus, minus


def _direct_plus_minus(rep, walk):
    if walk.shape == "finite":
        plus, minus = _start_spaces(rep, walk)
    else:
        period = walk_letter_relation(rep, walk.period[-1])
        for wl in reversed(walk.period[:-1]):
            period = walk_letter_relation(rep, wl).compose(period)
        minus, plus = period.stable_pair()
    return _apply_letters(rep, walk.letters, plus), _apply_letters(rep, walk.letters, minus)


# -- seeded modules ------------------------------------------------------------

PRESENTATIONS = {
    "E1": (examples.one_loop_pair, ()),
    "GP2": (examples.gelfand_ponomarev, ()),
    "A4": (examples.alternating_group_quotient, ()),
    "DIEUDONNE": (examples.frobenius_pair, ()),
    "GP2/GF(3)": (examples.gelfand_ponomarev, (3,)),
    "DIEUDONNE/GF(9)": (examples.frobenius_pair, (3, 2)),
    "E1/GF(9)": (examples.one_loop_pair, (3, 2)),
}


def _conjugated_sum(pres, rng, kdim):
    """A random direct sum of catalog modules of K-dimension kdim, under a
    random base change at every vertex."""
    catalog = examples.module_catalog(pres, 3, 3)
    total, budget = None, kdim
    while budget:
        rep = rng.choice([c for c in catalog if c[2].dim() <= budget])[2]
        total = rep if total is None else homalg.direct_sum(total, rep)
        budget -= rep.dim()
    elems = list(pres.field.elements())
    base = {}
    for v in pres.vertices:
        d = total.dims[v]
        while True:
            cand = Matrix(pres.field, [[rng.choice(elems) for _ in range(d)] for _ in range(d)], d, d)
            if cand.is_invertible():
                base[v] = cand
                break
    mats = {
        name: pres.sigma(name)(base[info.source]).inverse() @ total.mats[name] @ base[info.target]
        for name, info in pres.arrows.items()
    }
    return Representation(pres, total.dims, mats)


def _walks(pres, desc):
    """The two walks whose filtrations f_dim intersects."""
    spec = rw_descriptor(pres, desc)
    i = min(spec.Jw)
    return walk_suffix(pres, spec.walk, i), walk_prefix_inverse(pres, spec.walk, i)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_memoised_filtrations_match_the_direct_algorithm(name):
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    rng = random.Random(f"suffix-memo/{name}")
    rep = _conjugated_sum(pres, rng, 6)
    walks = [w for d in candidate_descriptors(pres, 6) for w in _walks(pres, d)]
    expected = [_direct_plus_minus(rep, w) for w in walks]
    for order in (1, -1):
        fresh = Representation(pres, rep.dims, rep.mats)
        got = {i: walk_plus_minus(fresh, walks[i]) for i in range(len(walks))[::order]}
        assert [got[i] for i in range(len(walks))] == expected, (name, order)
        assert fresh._filtration_cache


def test_modules_are_read_only(E1):
    rep = _conjugated_sum(E1, random.Random(0), 2)
    with pytest.raises(TypeError):
        rep.dims["1"] = 0
    with pytest.raises(TypeError):
        rep.mats["a"] = rep.mats["s"]
    with pytest.raises(TypeError):
        del rep.dims["1"]


# -- reduced bases straight from the elimination -------------------------------


@st.composite
def _relation_chain(draw):
    """p, relations S: U -> V and R: V -> W, and subspaces of U and V."""
    p = draw(st.sampled_from([2, 3]))
    u, v, w = (draw(st.integers(1, 3)) for _ in range(3))

    def rows(width):
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        return draw(st.lists(row, max_size=5))

    field = make_field(p, 1)
    s = SemilinearRelation(field, Aut(field, 0), u, v, Subspace(p, u + v, rows(u + v)))
    r = SemilinearRelation(field, Aut(field, 0), v, w, Subspace(p, v + w, rows(v + w)))
    return s, r, Subspace(p, u, rows(u)), Subspace(p, v, rows(v))


def _same_as_from_scratch(space):
    fresh = Subspace(space.p, space.ambient, space.rows)
    return (
        space.pivots == fresh.pivots
        and space.rows == fresh.rows
        and space.packed() == fresh.packed()
        and hash(space) == hash(fresh)
        and space == fresh
    )


@given(_relation_chain())
def test_images_and_composites_come_out_canonical(case):
    s, r, sub, other = case
    image, composite = s.image(sub), r.compose(s)
    assert _same_as_from_scratch(image)
    assert _same_as_from_scratch(composite.space)
    assert _same_as_from_scratch(image.intersect(other))
    assert composite.image(sub) == r.image(image)
