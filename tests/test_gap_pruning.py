"""The gap-pruned sweep of ``filtration.multiplicities`` against the sweep it
replaced, and the laws that make the pruning exact.

Write gap(U, W) = dim U - dim W for W <= U.  f_dim(w) is 0 as soon as one
half-walk of w has D^+ = D^-, a letter never widens the gap, and a periodic
tail's stable pair lies between R(0) and R(full) of its period.  The
reference sweep below runs ``f_dim`` on every candidate that fits the
module, as ``multiplicities`` did before it skipped the closed ones, and
builds the shape of every candidate, as it did before it screened each one
on the half-walk places that the word alone fixes.
"""

import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish import filtration
from clannish.errors import ClannishError, NotRightEndAdmissible, SpaceMismatch
from clannish.fields import Aut, make_field
from clannish.filtration import (
    DecompositionReport,
    candidate_descriptors,
    f_dim,
    walk_plus_minus,
)
from clannish.linalg import Subspace
from clannish.relations import SemilinearRelation
from clannish.reps import Representation
from clannish import words as words_mod
from clannish.walks import (
    ASYM_STRING,
    WalkShape,
    rw_descriptor,
    special_direct_walk,
    walk_shape,
)
from clannish.words import prefix_inverse, suffix, validate_word, vertex_at
from test_suffix_memo import PRESENTATIONS, _conjugated_sum

# -- the reference sweep -------------------------------------------------------


def _fits(rep, spec):
    if len(spec.Jw) > rep.dim():
        return False
    counts = {}
    for i in spec.Jw:
        v = vertex_at(rep.pres, spec.word, i)
        counts[v] = counts.get(v, 0) + 1
    return all(rep.dims.get(v, 0) >= c for v, c in counts.items())


def _open_halves(rep, spec):
    """Whether each half-walk that f_dim intersects has D^+ != D^-."""
    i = min(spec.Jw)
    halves = (suffix(rep.pres, spec.walk, i), prefix_inverse(rep.pres, spec.walk, i))
    return tuple(plus != minus for plus, minus in (walk_plus_minus(rep, h) for h in halves))


def reference_multiplicities(rep):
    """The unpruned sweep: (report, words whose two halves are both open)."""
    entries, open_words = [], []
    for desc in candidate_descriptors(rep.pres, rep.dim()):
        spec = rw_descriptor(rep.pres, desc)
        if not _fits(rep, spec):
            continue
        report = f_dim(rep, spec)
        if all(_open_halves(rep, spec)):
            open_words.append(desc.word)
        elif report.f_dim:
            raise AssertionError(f"{desc.word!r} has a closed half and f_dim {report.f_dim}")
        if report.f_dim:
            entries.append((desc, report.rank, report.f_dim))
    checksum = sum(r * f for _, r, f in entries)
    return DecompositionReport(entries, rep.dim(), checksum, checksum == rep.dim()), open_words


def _pruned(rep):
    """multiplicities on a fresh copy of rep, with the words it ran f_dim on."""
    fresh = Representation(rep.pres, rep.dims, rep.mats)
    evaluated = []

    def counting(rep, spec, index=None):
        evaluated.append(spec.word)
        return f_dim(rep, spec, index)

    with mock.patch.object(filtration, "f_dim", counting):
        return filtration.multiplicities(fresh), evaluated


_PRES = {}


def _pres(name):
    # one presentation object per name, as in a long-lived process: its
    # candidate lists and shapes are shared by the modules drawn over it
    if name not in _PRES:
        make, args = PRESENTATIONS[name]
        _PRES[name] = make(*args)
    return _PRES[name]


# -- the sweep ---------------------------------------------------------------


@given(st.sampled_from(sorted(PRESENTATIONS)), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_pruned_sweep_equals_the_reference_sweep(name, seed, kdim):
    rep = _conjugated_sum(_pres(name), random.Random(seed), kdim)
    want, open_words = reference_multiplicities(Representation(rep.pres, rep.dims, rep.mats))
    got, evaluated = _pruned(rep)
    assert got == want
    assert got.complete
    # exactly the candidates whose two halves are open reach f_dim
    assert evaluated == open_words


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_pruning_skips_most_candidates(name):
    rep = _conjugated_sum(_pres(name), random.Random(f"gap/{name}"), 8)
    got, evaluated = _pruned(rep)
    assert got.complete and len(evaluated) >= len(got.entries)
    assert len(evaluated) < len(candidate_descriptors(rep.pres, 8))


def test_a_candidate_with_either_half_closed_is_skipped(A4):
    # on this module the trivial string at vertex 1 has D^+ != D^- after
    # index 0 and D^+ = D^- before it; other candidates close the other way
    rep = _conjugated_sum(A4, random.Random("gap/A4/10"), 4)
    ref = Representation(rep.pres, rep.dims, rep.mats)
    specs = [rw_descriptor(A4, d) for d in candidate_descriptors(A4, rep.dim())]
    seen = {_open_halves(ref, spec) for spec in specs if _fits(ref, spec)}
    assert {(True, False), (False, True)} <= seen
    want, open_words = reference_multiplicities(ref)
    got, evaluated = _pruned(rep)
    assert got == want and evaluated == open_words


def test_a_root_with_d_minus_outside_d_plus_raises(E1, monkeypatch):
    rep = _conjugated_sum(E1, random.Random(0), 4)
    p, d = rep.field.p, rep.prime_dim("1")

    def swapped(rep, v, need):
        return Subspace.zero(p, d), Subspace.full(p, d)

    monkeypatch.setattr(filtration, "_finite_start", swapped)
    with pytest.raises(SpaceMismatch):
        filtration._open_places(rep, [((), ("finite", "1", 1))])
    with pytest.raises(SpaceMismatch):
        filtration.multiplicities(Representation(rep.pres, rep.dims, rep.mats))


# -- the screen on the word ----------------------------------------------------


_SHAPES = {}


def _shape(name, desc):
    key = (name, desc.word)
    if key not in _SHAPES:
        _SHAPES[key] = walk_shape(_pres(name), desc)
    return _SHAPES[key]


def _suffixes(place):
    """The places of the suffixes of the half-walk at ``place``: its letters
    from each position on, down to the bare root."""
    letters, end = place
    return [(letters[j:], end) for j in range(len(letters) + 1)]


@given(st.sampled_from(sorted(PRESENTATIONS)), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_the_screen_never_rejects_a_candidate_with_two_open_halves(name, seed, kdim):
    pres = _pres(name)
    rep = _conjugated_sum(pres, random.Random(seed), kdim)
    ref = Representation(pres, rep.dims, rep.mats)
    for desc, screen, _ in filtration._plan(pres, kdim):
        both_open = all(_open_halves(ref, _shape(name, desc)))
        passed = filtration._open_places(rep, screen)
        assert passed or not both_open, desc.word
        letters = desc.word.letters + desc.word.period
        if not any(l.is_star for l in letters):
            # a word with no star letter is screened on its two halves
            assert passed == both_open, desc.word


def test_the_screen_reads_suffixes_of_the_halves_alone():
    # every place the screen tests is a suffix of a half at min J_w that the
    # canonical walk gives, so it reads what the full gap test would read;
    # the screen reads its places in order up to the first closed one
    past_the_left_root = 0
    for name in sorted(PRESENTATIONS):
        pres = _pres(name)
        rep = _conjugated_sum(pres, random.Random(f"screen-reads/{name}"), 6)
        for desc, screen, _ in filtration._plan(pres, 6):
            shape = _shape(name, desc)
            halves = filtration._half_ends(pres, shape, min(shape.Jw))
            suffixes = {place for half in halves for place in _suffixes(half)}
            assert set(screen) <= suffixes, (desc.word, screen, halves)
            reads = 0
            for place in screen:
                reads += 1
                if not filtration._open_places(rep, [place]):
                    break
            past_the_left_root += any(l.is_star for l in desc.word.letters) and reads == 2
    # strings with a star letter whose right half was read too (on A4)
    assert past_the_left_root


@pytest.mark.parametrize("name", ["GP2", "DIEUDONNE"])
def test_only_candidates_that_pass_the_screen_get_a_shape(name, monkeypatch):
    # a fresh presentation, so that no shape is memoised yet; it has no
    # special loop, so the screen decides each candidate on its two halves
    make, args = PRESENTATIONS[name]
    pres = make(*args)
    rep = _conjugated_sum(pres, random.Random(f"screen/{name}"), 8)
    shaped, shape = [], filtration.walk_shape

    def recording_shape(pres, desc):
        shaped.append(desc.word)
        return shape(pres, desc)

    monkeypatch.setattr(filtration, "walk_shape", recording_shape)
    got = filtration.multiplicities(rep)
    # the module keeps its half-walks: reading the screen again takes no
    # image and gives the sweep's verdicts
    images = len(rep._images)
    passed = [d.word for d, screen, _ in filtration._plan(pres, 8) if filtration._open_places(rep, screen)]
    assert len(rep._images) == images
    assert got == reference_multiplicities(Representation(pres, rep.dims, rep.mats))[0]
    assert shaped == passed
    assert len(got.entries) <= len(shaped) < len(candidate_descriptors(pres, 8)) // 10


# -- the half-walk memo places -------------------------------------------------


def _outcome(make):
    """What make() returns, or the type of what it raises."""
    try:
        return make()
    except ClannishError as exc:
        return type(exc)


def _shapes_with_cut_ends(pres, dim):
    """The shape of every candidate with d <= dim, and for each string of
    length >= 2 also its word without the first letter, oriented by
    ``special_direct_walk``: a chain whose left end need not be
    end-admissible, so that one of its halves may fail right-end-admissibility."""
    for desc in candidate_descriptors(pres, dim):
        shape = walk_shape(pres, desc)
        yield shape
        if shape.walk.shape == "finite" and len(shape.word.letters) >= 2:
            cut = words_mod.suffix(pres, shape.word, 1)
            n = len(cut.letters)
            yield WalkShape(ASYM_STRING, cut, special_direct_walk(pres, cut), tuple(range(n + 1)))


def _window(walk):
    """The cuts i tried on a walk: all of a finite walk, and two periods
    about 0 of a periodic one."""
    if walk.shape == "finite":
        return range(len(walk.letters) + 1)
    m = len(walk.period)
    return range(-m, m + 1)


def _memo_letter(place, j):
    """The j-th letter (j >= 1) of the half-walk kept at a memo place
    (letters, end), or None past the end of a finite one."""
    letters, end = place
    if j <= len(letters):
        return letters[j - 1]
    if end[0] == "finite":
        return None
    period = end[1]
    return period[(j - len(letters) - 1) % len(period)]


def _check_halves(pres, walk, i):
    """C_{>i} and (C_{<=i})^-1 as the definition has them: the letters of C
    after i, and the inverted letters of C from i down, as one-sided walks
    that start at v_i; returns the letters read, up to a horizon past which a
    periodic half repeats."""
    after, before = suffix(pres, walk, i), prefix_inverse(pres, walk, i)
    inverse = lambda letter: None if letter is None else letter.inverse()
    horizon = 2 * (len(walk.letters) + len(walk.period)) + 2
    for half in (after, before):
        validate_word(pres, half)
        assert half.shape in ("finite", "right") and half.v0 == vertex_at(pres, walk, i)
    want_after = [walk.letter_at(i + j) for j in range(1, horizon + 1)]
    want_before = [inverse(walk.letter_at(i + 1 - j)) for j in range(1, horizon + 1)]
    assert [after.letter_at(j) for j in range(1, horizon + 1)] == want_after, (walk, i)
    assert [before.letter_at(j) for j in range(1, horizon + 1)] == want_before, (walk, i)
    return want_after, want_before


def test_half_ends_read_off_the_word_are_the_walks_memo_places():
    # every cut i in a window about J_w of every candidate with d <= 8, on
    # every presentation: the halves are C_{>i} and (C_{<=i})^-1 letter by
    # letter, and _half_ends keeps each at a memo place that spells it, or
    # raises when a finite half ends where no walk may
    kinds, raised = set(), set()
    for name in sorted(PRESENTATIONS):
        pres = _pres(name)
        for shape in _shapes_with_cut_ends(pres, 8):
            walk = shape.walk
            for i in _window(walk):
                halves = _check_halves(pres, walk, i)
                got = _outcome(lambda: filtration._half_ends(pres, shape, i))
                kinds.add((walk.shape, (i > 0) - (i < 0)))
                if isinstance(got, type):
                    raised.add(got)
                    continue
                for place, want in zip(got, halves):
                    assert [_memo_letter(place, j + 1) for j in range(len(want))] == want
    # a raise, and every kind of cut: a two-sided walk on either side of 0
    assert raised == {NotRightEndAdmissible}
    assert {("finite", 0), ("finite", 1), ("zper", -1), ("zper", 0), ("zper", 1)} <= kinds
    assert {("ztwo", -1), ("ztwo", 0), ("ztwo", 1)} <= kinds


# -- the laws ------------------------------------------------------------------


@st.composite
def _relation_and_flag(draw, square=False):
    """A relation R: U -> V over GF(p) with subspaces W <= X of U; V = U
    when ``square``."""
    p = draw(st.sampled_from([2, 3, 5]))
    u = draw(st.integers(1, 4))
    v = u if square else draw(st.integers(1, 4))

    def rows(width, most):
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        return draw(st.lists(row, max_size=most))

    field = make_field(p, 1)
    rel = SemilinearRelation(field, Aut(field, 0), u, v, Subspace(p, u + v, rows(u + v, 6)))
    small = rows(u, 3)
    return rel, Subspace(p, u, small), Subspace(p, u, small + rows(u, 3))


def _gap(upper, lower):
    assert lower <= upper
    return upper.dim - lower.dim


@given(_relation_and_flag())
def test_a_relation_never_widens_the_gap(case):
    rel, lower, upper = case
    assert _gap(rel.image(upper), rel.image(lower)) <= _gap(upper, lower)


@given(_relation_and_flag(square=True))
def test_the_stable_pair_lies_inside_the_period_bound(case):
    rel = case[0]
    lower, upper = rel.stable_pair()
    low_bound, high_bound = rel.image(rel.zero_source()), rel.image(rel.full_source())
    assert low_bound <= lower <= upper <= high_bound
    assert _gap(upper, lower) <= _gap(high_bound, low_bound)
