"""The walk filtrations memoised on each module's half-walks and by
(letter, subspace), and the reduced bases that relation images and
composites are built from, checked against the direct algorithms they
replace.

The reference below rebuilds D^+ and D^- of a walk from scratch: start
spaces at the walk's end, then the letter relations applied right to left;
a right-infinite walk starts from the stable pair of its period composite,
composed one letter at a time.  The decompose path builds no composite: it
iterates a period letter by letter through the image memo.  The sweep's
plans hang on the presentation and the half-walks on the module: what is
shared between modules, and what is not, is checked at the end.
"""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish import examples, filtration, homalg
from clannish.errors import NotStabilized
from clannish.fields import Aut, make_field
from clannish.filtration import candidate_descriptors, multiplicities, walk_plus_minus
from clannish.linalg import Matrix, Subspace
from clannish.presentation import ArrowInfo, Letter, validate
from clannish.relations import SemilinearRelation, arrow_relation, walk_letter_relation
from clannish.reps import Representation
from clannish.walks import rw_descriptor
from clannish.words import prefix_inverse, suffix, vertex_at

# -- the direct algorithm ------------------------------------------------------


def _apply_letters(rep, letters, space):
    for wl in reversed(letters):
        space = walk_letter_relation(rep, wl).image(space)
    return space


def _start_spaces(rep, walk):
    pres = rep.pres
    n = len(walk.letters)
    need = -pres.sign(walk.letter_at(n).inverse()) if n else walk.eps
    return _start_spaces_at(rep, vertex_at(pres, walk, n), need)


def _start_spaces_at(rep, v, need):
    pres, p = rep.pres, rep.field.p
    plus = Subspace.full(p, rep.prime_dim(v))
    minus = Subspace.zero(p, rep.prime_dim(v))
    for name in pres.ordinary_arrows():
        info = pres.arrows[name]
        if info.source == v and pres.sign(Letter("i", name)) == need:
            plus = arrow_relation(rep, name).preimage(Subspace.zero(p, rep.prime_dim(info.target)))
        if info.target == v and pres.sign(Letter("d", name)) == need:
            minus = arrow_relation(rep, name).image(Subspace.full(p, rep.prime_dim(info.source)))
    return plus, minus


def _composite_tail_pair(rep, period):
    """(D^+, D^-) of a periodic tail: the stable image and stable kernel of
    the period composite R(l1) o ... o R(ln)."""
    period_rel = walk_letter_relation(rep, period[-1])
    for wl in reversed(period[:-1]):
        period_rel = walk_letter_relation(rep, wl).compose(period_rel)
    lower, upper = period_rel.stable_pair()
    return upper, lower


def _direct_plus_minus(rep, walk):
    if walk.shape == "finite":
        plus, minus = _start_spaces(rep, walk)
    else:
        plus, minus = _composite_tail_pair(rep, walk.period)
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


def _beta_presentation():
    """One vertex over GF(4): a twisted by Frobenius with aa = 0, s untwisted
    with (beta, gamma) = (1, 1), so that s^-1 = s - beta differs from s."""
    arrows = [ArrowInfo("a", "1", "1", 1), ArrowInfo("s", "1", "1", 0)]
    return validate(make_field(2, 2), ("1",), arrows, {"s": (1, 1)}, [("a", "a")])


# every bundled special loop has beta = 0; this one has beta != 0, so that
# s read directly and s read inversely carry different filtrations
MEMO_PRESENTATIONS = {**PRESENTATIONS, "GF(4)/beta": (_beta_presentation, ())}


def _conjugated_sum(pres, rng, kdim, planted=None):
    """A random direct sum of catalog modules of K-dimension kdim, one of
    them ``planted`` if given, under a random base change at every vertex."""
    catalog = examples.module_catalog(pres, 3, 3)
    total = planted
    budget = kdim - (0 if planted is None else planted.dim())
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
    return suffix(pres, spec.walk, i), prefix_inverse(pres, spec.walk, i)


@pytest.mark.parametrize("name", MEMO_PRESENTATIONS)
def test_memoised_filtrations_match_the_direct_algorithm(name):
    make, args = MEMO_PRESENTATIONS[name]
    pres = make(*args)
    rng = random.Random(f"suffix-memo/{name}")
    rep = _conjugated_sum(pres, rng, 6)
    walks = [w for d in candidate_descriptors(pres, 6) for w in _walks(pres, d)]
    expected = [_direct_plus_minus(rep, w) for w in walks]
    for order in (1, -1):
        fresh = Representation(pres, rep.dims, rep.mats)
        got = {i: walk_plus_minus(fresh, walks[i]) for i in range(len(walks))[::order]}
        assert [got[i] for i in range(len(walks))] == expected, (name, order)
        assert fresh._roots


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_no_image_is_computed_twice_per_module(name, monkeypatch):
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    rep = _conjugated_sum(pres, random.Random(f"image-memo/{name}"), 6)
    image, taken = SemilinearRelation.image, []

    def recording_image(rel, sub):
        if sys._getframe(1).f_code is filtration._image.__code__:
            taken.append((id(rel), sub))
        return image(rel, sub)

    monkeypatch.setattr(SemilinearRelation, "image", recording_image)
    report = multiplicities(rep)
    monkeypatch.undo()
    assert report.complete
    assert taken and len(set(taken)) == len(taken), name
    entries = rep._images.items()
    assert len(entries) == len(taken)
    for (letter, sub), hit in entries:
        assert hit == walk_letter_relation(rep, letter).image(sub), (name, letter)


@pytest.mark.parametrize("name", MEMO_PRESENTATIONS)
def test_the_image_memo_tells_apart_what_the_relation_tells_apart(name):
    """Lines that share their pivot, and the direct and inverse letters of
    one arrow, all go through one module's memo: each gets its own image."""
    make, args = MEMO_PRESENTATIONS[name]
    pres = make(*args)
    rep = _conjugated_sum(pres, random.Random(f"image-keys/{name}"), 6)
    p, told_apart = rep.field.p, 0
    for arrow in pres.arrows:
        for letter in (Letter("d", arrow), Letter("i", arrow)):
            rel = walk_letter_relation(rep, letter)
            d = rel.src * rep.field.n
            lines = [Subspace(p, d, [[1, c] + [0] * (d - 2)]) for c in range(p)] if d > 1 else []
            images = [filtration._image(rep, letter, line) for line in lines]
            assert images == [rel.image(line) for line in lines], (name, letter)
            told_apart += len(set(images)) > 1
    assert told_apart


@pytest.mark.parametrize("name", MEMO_PRESENTATIONS)
def test_the_decompose_path_builds_no_composite(name, monkeypatch):
    """Periodic tails go letter by letter through the image memo: with
    ``compose`` and ``stable_pair`` refused, the report is the one that the
    composites' stable pairs give."""
    make, args = MEMO_PRESENTATIONS[name]
    pres = make(*args)
    rng = random.Random(f"no-composite/{name}")
    # a planted band makes the sweep compute periodic tails; A4's catalog
    # holds no band
    bands = [c[2] for c in examples.module_catalog(pres, 3, 3) if c[0].word.shape == "zper"]
    rep = _conjugated_sum(pres, rng, 6, rng.choice(bands) if bands else None)
    tails = []

    def reference_tail_pair(rep, period):
        tails.append(period)
        return _composite_tail_pair(rep, period)

    with monkeypatch.context() as patch:
        patch.setattr(filtration, "_tail_pair", reference_tail_pair)
        expected = multiplicities(Representation(pres, rep.dims, rep.mats))

    def refused(*args):
        raise AssertionError("the decompose path built a composite relation")

    monkeypatch.setattr(SemilinearRelation, "compose", refused)
    monkeypatch.setattr(SemilinearRelation, "stable_pair", refused)
    report = multiplicities(Representation(pres, rep.dims, rep.mats))
    assert tails or not bands, name
    assert report.complete and report.as_dict() == expected.as_dict(), name


def test_a_tail_that_never_repeats_a_space_raises(E1, monkeypatch):
    """The letter-wise tail runs under the same bound as ``stable_pair``."""
    rep = _conjugated_sum(E1, random.Random(0), 2)
    p, d = rep.field.p, rep.prime_dim("1")

    def flip(rep, letter, space):
        return Subspace.zero(p, d) if space.dim else Subspace.full(p, d)

    monkeypatch.setattr(filtration, "_image", flip)
    with pytest.raises(NotStabilized):
        filtration._tail_pair(rep, (Letter("d", "a"),))


def test_modules_are_read_only(E1):
    rep = _conjugated_sum(E1, random.Random(0), 2)
    with pytest.raises(TypeError):
        rep.dims["1"] = 0
    with pytest.raises(TypeError):
        rep.mats["a"] = rep.mats["s"]
    with pytest.raises(TypeError):
        del rep.dims["1"]


# -- the module's half-walks -----------------------------------------------------


def _made(rep):
    """{place: half-walk} over every half-walk the module made: each root by
    its end, and each child at its letter prepended to its parent's place."""
    made, stack = {}, [((), end, half) for end, half in rep._roots.items()]
    while stack:
        letters, end, half = stack.pop()
        made[letters, end] = half
        stack.extend(((letter,) + letters, end, child) for letter, child in half.children.items())
    return made


def _made_pairs(rep):
    return {place: (half.plus, half.minus, half.open) for place, half in _made(rep).items()}


def _check_made_below_open_ones(rep):
    """Every half-walk the module made hangs on an open one: a child on its
    open parent, and a periodic tail's root on its open bound, the period
    on ("span", v).  Returns how many closed half-walks it made."""
    made = _made(rep)
    for (letters, end), half in made.items():
        if letters:
            assert made[letters[1:], end].open, (letters, end)
        elif end[0] == "right":
            period = end[1]
            assert made[period, ("span", rep.pres.tail(period[-1]))].open, end
    return sum(not half.open for half in made.values())


def _direct_place_pair(rep, letters, end):
    """(D^+, D^-) of l1...ln C' with no memo: the start spaces of C', then
    each letter's relation image, right to left."""
    p = rep.field.p
    if end[0] == "finite":
        plus, minus = _start_spaces_at(rep, end[1], end[2])
    elif end[0] == "span":
        d = rep.prime_dim(end[1])
        plus, minus = Subspace.full(p, d), Subspace.zero(p, d)
    else:
        plus, minus = _composite_tail_pair(rep, end[1])
    return _apply_letters(rep, letters, plus), _apply_letters(rep, letters, minus)


@pytest.fixture(scope="module")
def sources():
    """The bundled presentations by name and the generated ones by key, with
    a seeded module over each; imported here, since the generated
    presentations' file imports this one."""
    from test_gap_pruning import _pres
    from test_generated_presentations import VALID, _catalog, _planted_sum

    def module(source, seed, kdim):
        if isinstance(source, str):
            return _conjugated_sum(_pres(source), random.Random(seed), kdim)
        return _planted_sum(random.Random(seed), _catalog(*source), kdim)[1]

    return sorted(PRESENTATIONS) + VALID, module


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_every_node_the_sweep_touched_holds_the_direct_pair(sources, pick, seed, kdim):
    # a module over one shared presentation object, as in a long-lived
    # process; the pair and gap state of every half-walk its sweep made,
    # against a memo-free computation on a fresh copy of the module, and
    # none made below a closed one
    keys, module = sources
    rep = module(keys[pick % len(keys)], seed, kdim)
    report = multiplicities(rep)
    assert report.complete
    made = _made(rep)
    assert made
    fresh = Representation(rep.pres, rep.dims, rep.mats)
    want = {place: _direct_place_pair(fresh, *place) for place in made}
    assert not fresh._images and not fresh._roots
    for place, half in made.items():
        plus, minus = want[place]
        assert (half.plus, half.minus) == (plus, minus), place
        assert half.open == (plus.dim > minus.dim), place
    _check_made_below_open_ones(rep)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_no_half_walk_is_made_below_a_closed_one(name):
    """The sweep reads each place from its root down and stops at the first
    closed half-walk: every half-walk it made hangs on an open one, and it
    did meet closed ones."""
    make, args = PRESENTATIONS[name]
    rep = _conjugated_sum(make(*args), random.Random(f"below-open/{name}"), 6)
    assert multiplicities(rep).complete
    assert _check_made_below_open_ones(rep), name


def _refuse(what):
    def refused(*args):
        raise AssertionError(f"{what} ran again")

    return refused


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_a_second_module_adds_no_node_and_builds_no_plan(name, monkeypatch):
    """A second module over one presentation reads the plan and the
    half-walk places the first one built, and makes its own half-walks:
    the same ones, with the same pairs, for the same arrow matrices."""
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    rep = _conjugated_sum(pres, random.Random(f"forest/{name}"), 6)
    first = multiplicities(rep)
    plan, halves = pres._plans[6], len(pres._halves)
    for attr in ("_screen", "_word_data", "walk_shape"):
        monkeypatch.setattr(filtration, attr, _refuse(attr))
    again = Representation(pres, rep.dims, rep.mats)
    assert multiplicities(again) == first
    assert _made_pairs(again) == _made_pairs(rep)
    assert all(again._roots[end] is not rep._roots[end] for end in rep._roots)
    assert len(pres._halves) == halves
    assert list(pres._plans) == [6] and pres._plans[6] is plan


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_the_oracles_parts_reuse_the_forest(name, monkeypatch):
    """oracle-check runs the whole module, then each brute-force part.  A
    part's gaps are summands of the whole module's, so a part opens no
    half-walk that the whole left closed: it makes half-walks only at places
    the whole made, its smaller plans filter the whole's plan, and it adds
    no half-walk place, no shape and no enumeration."""
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    rep = _conjugated_sum(pres, random.Random(f"forest-parts/{name}"), 6)
    multiplicities(rep)
    parts = homalg.brute_decompose(rep)
    assert len(parts) > 1, name
    halves, whole = len(pres._halves), {id(entry) for entry in pres._plans[6]}
    for attr in ("_screen", "_word_data", "walk_shape"):
        monkeypatch.setattr(filtration, attr, _refuse(attr))
    for attr in ("enumerate_strings", "enumerate_bands"):
        monkeypatch.setattr(filtration.words_mod, attr, _refuse(attr))
    places = _made(rep).keys()
    for part in parts:
        assert multiplicities(part).checksum == part.dim()
        assert {id(entry) for entry in pres._plans[part.dim()]} <= whole
        assert _made(part).keys() <= places, name
    assert len(pres._halves) == halves
    assert set(pres._plans) == {6} | {part.dim() for part in parts}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_modules_over_one_presentation_keep_their_own_pairs(name):
    """Two modules over one presentation object share its plan, not their
    half-walks: each report is the one its module gives over a presentation
    of its own.  The two are drawn so that those reports differ."""
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    drawn = []
    for k in range(20):
        rep = _conjugated_sum(pres, random.Random(f"own-pairs/{name}/{k}"), 6)
        alone = multiplicities(Representation(make(*args), rep.dims, rep.mats))
        if not drawn or alone != drawn[0][1]:
            drawn.append((rep, alone))
        if len(drawn) == 2:
            break
    assert len(drawn) == 2, name
    assert [multiplicities(rep) for rep, _ in drawn] == [alone for _, alone in drawn], name
    first, second = (_made_pairs(rep) for rep, _ in drawn)
    assert any(first[place] != second[place] for place in first.keys() & second.keys()), name


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
