"""Seeded random presentations of two shapes, beyond the bundled ones.

Every special loop of the bundled presentations has (beta, gamma) = (0, 1),
so the beta term of a special loop's action (``walks._walk_rules``) never
contributes there.  The generator below draws the twists of every arrow and
the (beta, gamma) of the special loop at random over GF(4), GF(8), GF(3),
GF(9) and GF(5), and keeps a draw only when ``validate`` accepts it, so the
axioms stay the library's.  Two shapes are drawn:

* E1's: one vertex, an ordinary loop a with aa = 0 and a special loop s;
* A4's: arrows a: 1 -> 2, b: 2 -> 1, a loop c at 1 and a special loop s at
  2, with ab = ac = ba = cb = cc = 0.

The draws feed the dimension formula on conjugated catalog sums with planted
summands, the reference sweep of ``test_gap_pruning`` and, with the bundled
presentations, the definition of the half-walks of a canonical walk.
"""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish.errors import ClannishError
from clannish.examples import module_catalog
from clannish.fields import make_field
from clannish.filtration import candidate_descriptors, multiplicities, walk_plus_minus
from clannish.homalg import direct_sum
from clannish.presentation import ArrowInfo, Letter, validate
from clannish.relations import arrow_relation
from clannish.reps import Representation
from clannish.walks import canonical_walk, finite_walk
from clannish.words import prefix_inverse, suffix, word_key
from test_gap_pruning import _check_halves, _pres, _pruned, _window, reference_multiplicities
from test_suffix_memo import PRESENTATIONS, _beta_presentation
from test_properties import _random_conjugate

FIELDS = ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
SHAPES = {
    "E1": (("1",), (("a", "1", "1"), ("s", "1", "1")), (("a", "a"),)),
    "A4": (
        ("1", "2"),
        (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1"), ("s", "2", "2")),
        (("a", "b"), ("a", "c"), ("b", "a"), ("c", "b"), ("c", "c")),
    ),
}
DRAWS = 120


@functools.lru_cache(maxsize=None)
def draw_presentation(shape, seed):
    """The presentation of ``shape`` drawn from ``seed``, or None when
    ``validate`` rejects the draw; one object per draw, so that its caches
    are shared by the modules drawn over it."""
    rng = random.Random(f"generated/{shape}/{seed}")
    field = make_field(*rng.choice(FIELDS))
    vertices, arrows, relations = SHAPES[shape]
    arrows = [ArrowInfo(name, src, tgt, rng.randrange(field.n)) for name, src, tgt in arrows]
    special = {"s": (rng.randrange(field.q), rng.randrange(field.q))}
    try:
        return validate(field, vertices, arrows, special, relations)
    except ClannishError:
        return None


VALID = [
    (shape, seed)
    for shape in sorted(SHAPES)
    for seed in range(DRAWS)
    if draw_presentation(shape, seed) is not None
]


@functools.lru_cache(maxsize=None)
def _catalog(shape, seed):
    return module_catalog(draw_presentation(shape, seed), 3, 3)


def _planted_sum(rng, catalog, kdim):
    """Catalog entries drawn at random while one fits in what is left of
    kdim (a catalog may hold no module of K-dimension 1), then a random base
    change at every vertex: (picks, module)."""
    picks, budget = [], kdim
    while True:
        fits = [c for c in catalog if c[2].dim() <= budget]
        if not fits:
            break
        picks.append(rng.choice(fits))
        budget -= picks[-1][2].dim()
    total = picks[0][2]
    for _, _, rep in picks[1:]:
        total = direct_sum(total, rep)
    return picks, _random_conjugate(rng, total)


def test_the_draws_reach_beyond_the_bundled_loops():
    pres = [draw_presentation(*key) for key in VALID]
    assert {shape for shape, _ in VALID} == set(SHAPES)
    assert {(p.field.p, p.field.n) for p in pres} == set(FIELDS)
    # most special loops have beta != 0, some beside a twisted loop a
    beta = [p for p in pres if p.quadratic("s").beta]
    assert len(beta) > len(pres) // 2
    assert any(p.arrows["a"].sigma_k for p in beta)


@given(st.sampled_from(VALID), st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_generated_sums_report_their_planted_summands(key, seed, kdim):
    pres = draw_presentation(*key)
    picks, module = _planted_sum(random.Random(seed), _catalog(*key), kdim)
    assert module.check_relations()
    report = multiplicities(module)
    assert report.complete and report.checksum == module.dim()
    planted = {}
    for desc, param, _ in picks:
        word = word_key(pres, desc.word)
        planted[word] = planted.get(word, 0) + param.dim
    assert {word_key(pres, d.word): f for d, _, f in report.entries} == planted


@given(st.sampled_from(VALID), st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_generated_pruned_sweep_equals_the_reference_sweep(key, seed, kdim):
    _, module = _planted_sum(random.Random(seed), _catalog(*key), kdim)
    want, open_words = reference_multiplicities(
        Representation(module.pres, module.dims, module.mats)
    )
    got, evaluated = _pruned(module)
    assert got == want and got.complete
    assert evaluated == open_words


# -- walks are words ------------------------------------------------------------


def test_an_oriented_special_loop_has_the_sign_of_its_star_letter():
    # a walk letter Letter("d"/"i", s) reads the sign of s*, which stays the
    # only spelling of s that the sign table, and so an input word, holds
    bundled = [_pres(name) for name in sorted(PRESENTATIONS)]
    loops = 0
    for pres in bundled + [draw_presentation(*key) for key in VALID]:
        for s in pres.special:
            star, direct, inverse = Letter("s", s), Letter("d", s), Letter("i", s)
            assert pres.sign(direct) == pres.sign(inverse) == pres.sign(star) == pres.signs[star]
            assert direct not in pres.signs and inverse not in pres.signs
            loops += 1
    assert loops > len(VALID)


# -- the half-walks of a canonical walk ----------------------------------------


_WALKS = {}


def _canonical_walks(source):
    """The canonical walk of every candidate with d <= 6 of a bundled
    presentation (by name) or a generated one (by key)."""
    if source not in _WALKS:
        pres = _pres(source) if isinstance(source, str) else draw_presentation(*source)
        _WALKS[source] = pres, [canonical_walk(pres, d.word) for d in candidate_descriptors(pres, 6)]
    return _WALKS[source]


@given(
    st.sampled_from(sorted(PRESENTATIONS) + VALID),
    st.integers(0, 2**32 - 1),
    st.integers(-1, 2**32 - 1),
)
def test_half_walks_of_canonical_walks_follow_the_definition(source, pick, cut):
    # a canonical walk of a bundled or a generated presentation, cut at a
    # point of its window; a finite walk has no halves at i = -1
    pres, walks = _canonical_walks(source)
    walk = walks[pick % len(walks)]
    if cut < 0 and walk.shape == "finite":
        for half in (suffix, prefix_inverse):
            with pytest.raises(IndexError):
                half(pres, walk, cut)
        return
    window = _window(walk)
    _check_halves(pres, walk, window[cut % len(window)])


# -- the orientation of a special loop in a walk --------------------------------


def test_a_walk_reads_s_and_s_inverse_through_their_own_relations():
    pres = _beta_presentation()
    sd, si, a = Letter("d", "s"), Letter("i", "s"), Letter("d", "a")
    tail = finite_walk(pres, [a, sd])
    catalog = module_catalog(pres, 3, 3)
    differ = 0
    for seed in range(10):
        _, module = _planted_sum(random.Random(f"orientation/{seed}"), catalog, 8)
        assert module.dim() == 8
        plus, minus = walk_plus_minus(module, tail)
        pairs = {}
        for letter, inverse in ((sd, False), (si, True)):
            rel = arrow_relation(module, "s", inverse=inverse)
            pairs[letter] = walk_plus_minus(module, finite_walk(pres, [letter, a, sd]))
            assert pairs[letter] == (rel.image(plus), rel.image(minus))
        differ += pairs[sd] != pairs[si]
    # s and s^-1 carry different filtrations on these modules
    assert differ == 10
