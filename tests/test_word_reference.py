"""Differential tests of the word decisions against the enumerators they
replaced.

The reference below is the generate-and-deduplicate enumerator: three
relation-window scanners, key tuples for every rotation of a band block, a
dict of canonical words per bound, and two enumerations per candidate set on
presentations with special loops.  The library must give exactly its lists,
in its order, for every bound >= 1.  The band search grows prenecklaces
alone; a brute-force list of every closed letter sequence, and the Lyndon
property of every returned block, check it from two more sides.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clannish.examples import (
    alternating_group_quotient,
    frobenius_pair,
    gelfand_ponomarev,
    one_loop_pair,
)
from clannish.filtration import candidate_descriptors
from clannish.presentation import Letter
from clannish.walks import rw_descriptor
from clannish.words import (
    BandDescriptor,
    StringDescriptor,
    Word,
    _extensions,
    _first_letters,
    band_shape,
    enumerate_bands,
    enumerate_strings,
    invert_word,
    is_relation_admissible,
    periodic_word,
    trivial_word,
    word_key,
)
from library_reference import canonical_string_word

# -- the reference -------------------------------------------------------------


def ref_relation_patterns(pres):
    pats = set()
    for r in pres.zero_relations:
        fwd = tuple(Letter("s", a) if a in pres.special else Letter("d", a) for a in r)
        bwd = tuple(l.inverse() for l in reversed(fwd))
        pats.add(fwd)
        pats.add(bwd)
    return pats


def ref_contains_pattern(seq, pats):
    if not pats:
        return False
    maxlen = max(len(p) for p in pats)
    for i in range(len(seq)):
        for k in range(2, maxlen + 1):
            if i + k <= len(seq) and tuple(seq[i : i + k]) in pats:
                return True
    return False


def ref_suffix_hits_pattern(seq, pats):
    for k in range(2, len(seq) + 1):
        if tuple(seq[-k:]) in pats:
            return True
    return False


def ref_is_relation_admissible(pres, w):
    pats = ref_relation_patterns(pres)
    if not pats:
        return True
    maxlen = max(len(p) for p in pats)
    if w.shape == "finite":
        return not ref_contains_pattern(list(w.letters), pats)
    reps = -(-(maxlen) // len(w.period)) + 1
    return not ref_contains_pattern(list(w.letters) + list(w.period) * reps, pats)


def ref_rotations(block):
    m = len(block)
    return [tuple(block[(j + d) % m] for j in range(m)) for d in range(m)]


def ref_band_inverse_block(block):
    m = len(block)
    return tuple(block[(-j - 2) % m].inverse() for j in range(m))


def ref_is_primitive(block):
    m = len(block)
    for d in range(1, m):
        if m % d == 0 and all(block[j] == block[(j + d) % m] for j in range(m)):
            return False
    return True


def ref_canonical_band_block(block):
    cands = ref_rotations(block) + ref_rotations(ref_band_inverse_block(block))
    return min(cands, key=lambda b: tuple(l.key() for l in b))


def ref_enumerate_strings(pres, max_len):
    pats = ref_relation_patterns(pres)
    found = {}

    def emit(word):
        cw = canonical_string_word(pres, word)
        found.setdefault(word_key(pres, cw), cw)

    for v in sorted(pres.vertices):
        if not pres.specials_at(v):
            emit(trivial_word(pres, v, 1))

    def interior_ok(seq):
        x, y = seq[-2], seq[-1]
        v = pres.tail(x)
        for s in pres.specials_at(v):
            star = Letter("s", s)
            if x != star and y != star:
                return False
        return True

    def end_ok(seq):
        v = pres.tail(seq[-1])
        for s in pres.specials_at(v):
            if seq[-1] != Letter("s", s):
                return False
        return True

    def rec(v0, eps, seq):
        if end_ok(seq):
            emit(Word("finite", v0, eps, tuple(seq)))
        if len(seq) >= max_len:
            return
        for letter in _extensions(pres, seq[-1]):
            seq.append(letter)
            if not ref_suffix_hits_pattern(seq, pats) and interior_ok(seq):
                rec(v0, eps, seq)
            seq.pop()

    for v0 in sorted(pres.vertices):
        for eps in (1, -1):
            for letter in _first_letters(pres, v0, eps):
                seq = [letter]
                if not ref_suffix_hits_pattern(seq, pats):
                    rec(v0, eps, seq)

    words = sorted(found.values(), key=lambda w: word_key(pres, w))
    return [StringDescriptor(w, symmetric=(w == invert_word(pres, w))) for w in words]


def ref_enumerate_bands(pres, max_period):
    pats = ref_relation_patterns(pres)
    maxpat = max((len(p) for p in pats), default=0)
    found = {}

    def try_close(seq):
        first, last = seq[0], seq[-1]
        if pres.tail(last) != pres.head(first):
            return
        if pres.sign(last.inverse()) != -pres.sign(first):
            return
        block = tuple(seq)
        if not ref_is_primitive(block):
            return
        reps = max(2, -(-maxpat // len(block)) + 1)
        if ref_contains_pattern(list(block) * reps, pats):
            return
        if block != ref_canonical_band_block(block):
            return
        word = periodic_word(pres, block, check=False)
        symmetric = ref_band_inverse_block(block) in ref_rotations(block)
        found.setdefault(tuple(l.key() for l in block), BandDescriptor(word, symmetric))

    def rec(seq):
        try_close(seq)
        if len(seq) >= max_period:
            return
        for letter in _extensions(pres, seq[-1]):
            seq.append(letter)
            if not ref_suffix_hits_pattern(seq, pats):
                rec(seq)
            seq.pop()

    for letter in sorted(pres.letters(), key=lambda l: l.key()):
        rec([letter])

    return sorted(found.values(), key=lambda d: word_key(pres, d.word))


def ref_candidate_descriptors(pres, dim):
    has_special = bool(pres.special)
    asym_len, sym_len, band_per, sym_per = dim - 1, 2 * dim - 1, dim, 2 * dim
    descs = []
    seen = set()
    for d in ref_enumerate_strings(pres, asym_len):
        descs.append(d)
        seen.add(word_key(pres, d.word))
    if has_special and sym_len > asym_len:
        for d in ref_enumerate_strings(pres, sym_len):
            if d.symmetric and word_key(pres, d.word) not in seen:
                descs.append(d)
                seen.add(word_key(pres, d.word))
    for d in ref_enumerate_bands(pres, band_per):
        descs.append(d)
        seen.add(word_key(pres, d.word))
    if has_special and sym_per > band_per:
        for d in ref_enumerate_bands(pres, sym_per):
            if d.symmetric and word_key(pres, d.word) not in seen:
                descs.append(d)
                seen.add(word_key(pres, d.word))
    return descs


# -- the presentations ---------------------------------------------------------

# name -> (factory, arguments, string bound, band bound)
PRESENTATIONS = {
    "E1": (one_loop_pair, (), 12, 12),
    "GP2": (gelfand_ponomarev, (), 8, 8),
    "A4": (alternating_group_quotient, (), 12, 12),
    "DIEUDONNE": (frobenius_pair, (), 8, 8),
    "E1(3,2)": (one_loop_pair, (3, 2), 8, 8),
    "GP2(3)": (gelfand_ponomarev, (3,), 6, 6),
    "DIEUDONNE(3,2)": (frobenius_pair, (3, 2), 6, 6),
}


@functools.lru_cache(maxsize=None)
def _pres(name):
    factory, args, _, _ = PRESENTATIONS[name]
    return factory(*args)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_enumeration_equals_the_reference(name):
    pres = _pres(name)
    _, _, max_len, max_period = PRESENTATIONS[name]
    strings = ref_enumerate_strings(pres, max_len)
    bands = ref_enumerate_bands(pres, max_period)
    assert enumerate_strings(pres, max_len) == strings
    assert enumerate_bands(pres, max_period) == bands
    # a smaller bound keeps a prefix of the list: it is sorted by length first
    for bound in range(1, 4):
        assert enumerate_strings(pres, bound) == ref_enumerate_strings(pres, bound)
        assert enumerate_bands(pres, bound) == ref_enumerate_bands(pres, bound)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_candidate_lists_equal_the_reference(name):
    pres = _pres(name)
    for dim in range(2, 5):
        assert candidate_descriptors(pres, dim) == ref_candidate_descriptors(pres, dim)
    # below dim 2 the reference also listed words longer than its bounds;
    # every one of them has |J_w| > dim, so no module could use it
    for dim in (0, 1):
        new = candidate_descriptors(pres, dim)
        ref = ref_candidate_descriptors(pres, dim)
        assert [d for d in ref if d in new] == new
        assert all(len(rw_descriptor(pres, d).Jw) > dim for d in ref if d not in new)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_a_smaller_default_candidate_list_is_the_larger_one_filtered(name, monkeypatch):
    from clannish import words

    factory, args, _, _ = PRESENTATIONS[name]
    pres = factory(*args)
    candidate_descriptors(pres, 8)
    fresh = {dim: candidate_descriptors(factory(*args), dim) for dim in range(8)}

    def no_enumeration(*args):
        raise AssertionError("enumerated again below a cached default bound")

    monkeypatch.setattr(words, "enumerate_strings", no_enumeration)
    monkeypatch.setattr(words, "enumerate_bands", no_enumeration)
    for dim in range(7, -1, -1):
        assert candidate_descriptors(pres, dim) == fresh[dim]


# -- bands by brute force -------------------------------------------------------

# name -> the largest period listed by brute force
BRUTE_PERIODS = {name: 5 if name in ("GP2(3)", "DIEUDONNE(3,2)") else 6 for name in PRESENTATIONS}


def brute_force_bands(pres, max_period):
    """Every closed, chained, relation-admissible letter sequence up to the
    bound, canonicalised, the primitive ones kept once each."""
    found = {}
    seqs = [(l,) for l in pres.letters()]
    for _ in range(max_period):
        for seq in seqs:
            if not _closes(pres, seq):
                continue
            if not ref_is_relation_admissible(pres, Word("zper", pres.head(seq[0]), pres.sign(seq[0]), (), seq)):
                continue
            shape = band_shape(seq)
            if shape.primitive:
                found[shape.canonical] = BandDescriptor(periodic_word(pres, shape.canonical), shape.symmetric)
        seqs = [seq + (l,) for seq in seqs for l in _extensions(pres, seq[-1])]
    return sorted(found.values(), key=lambda d: word_key(pres, d.word))


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_bands_equal_the_brute_force_list(name):
    pres = _pres(name)
    assert enumerate_bands(pres, BRUTE_PERIODS[name]) == brute_force_bands(pres, BRUTE_PERIODS[name])


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_band_blocks_are_lyndon_words(name):
    # each block sorts strictly before every proper rotation of itself
    pres = _pres(name)
    for d in enumerate_bands(pres, PRESENTATIONS[name][3]):
        keys = [l.key() for l in d.word.period]
        assert all(keys < keys[k:] + keys[:k] for k in range(1, len(keys)))


def test_bounds_below_one():
    gp2, dieu = _pres("GP2"), _pres("DIEUDONNE")
    assert [repr(d.word) for d in enumerate_strings(gp2, 0)] == ["1_(1,+1)"]
    assert enumerate_strings(gp2, -1) == []
    assert enumerate_bands(dieu, 0) == []
    assert enumerate_bands(dieu, -1) == []
    # E1 has no trivial string: its one vertex carries a special loop
    assert enumerate_strings(_pres("E1"), 0) == []


# -- random chained words ------------------------------------------------------


@st.composite
def _chain(draw, pres, length):
    """A chained letter sequence: each letter may follow the one before."""
    letters = sorted(pres.letters(), key=Letter.key)
    seq = [draw(st.sampled_from(letters))]
    while len(seq) < length and _extensions(pres, seq[-1]):
        seq.append(draw(st.sampled_from(_extensions(pres, seq[-1]))))
    return seq


def _closes(pres, seq):
    first, last = seq[0], seq[-1]
    return pres.tail(last) == pres.head(first) and pres.sign(last.inverse()) == -pres.sign(first)


@st.composite
def _chained_word(draw):
    """A finite, right-infinite or periodic word over a bundled presentation;
    relation-admissible or not, and periodic words primitive or not."""
    pres = _pres(draw(st.sampled_from(sorted(PRESENTATIONS))))
    shape = draw(st.sampled_from(("finite", "right", "zper")))
    if shape == "finite":
        seq = draw(_chain(pres, draw(st.integers(1, 10))))
        return pres, Word("finite", pres.head(seq[0]), pres.sign(seq[0]), tuple(seq))
    k = draw(st.integers(0, 4)) if shape == "right" else 0
    seq = draw(_chain(pres, k + draw(st.integers(1, 7))))
    block = seq[k:]
    assume(_closes(pres, block))
    block = tuple(block) * draw(st.integers(1, 3))
    prefix = tuple(seq[:k])
    first = (prefix or block)[0]
    return pres, Word(shape, pres.head(first), pres.sign(first), prefix, block)


def _shape_triple(block):
    inverse = ref_band_inverse_block(block)
    return ref_canonical_band_block(block), ref_is_primitive(block), inverse in ref_rotations(block)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_short_words_equal_the_reference(name):
    # every chained sequence of up to five letters, read as a finite word and
    # wherever it closes as the period of a right-infinite or periodic word
    pres = _pres(name)
    seqs = [[l] for l in sorted(pres.letters(), key=Letter.key)]
    for _ in range(5):
        for seq in seqs:
            first = seq[0]
            words = [Word("finite", pres.head(first), pres.sign(first), tuple(seq))]
            for k in range(len(seq)):
                if _closes(pres, seq[k:]):
                    prefix, period = tuple(seq[:k]), tuple(seq[k:])
                    words.append(Word("right", pres.head(first), pres.sign(first), prefix, period))
                    if not k:
                        words.append(Word("zper", pres.head(first), pres.sign(first), (), period))
            for w in words:
                assert is_relation_admissible(pres, w) == ref_is_relation_admissible(pres, w)
            assert tuple(band_shape(tuple(seq))) == _shape_triple(tuple(seq))
        seqs = [seq + [l] for seq in seqs for l in _extensions(pres, seq[-1])]


@settings(max_examples=300)
@given(_chained_word())
def test_relation_admissibility_equals_the_reference(case):
    pres, w = case
    assert is_relation_admissible(pres, w) == ref_is_relation_admissible(pres, w)


@settings(max_examples=300)
@given(_chained_word())
def test_band_shape_equals_the_reference(case):
    _, w = case
    block = w.period or w.letters
    assert tuple(band_shape(block)) == _shape_triple(block)
