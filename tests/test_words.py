import itertools
import random
import sys

import pytest

from clannish.errors import NonConcatenable, NotComparable, NotStarLetter, NotSymmetric
from clannish.presentation import Letter
from clannish.serialize import presentation_from_json
from clannish.words import (
    NATURALLY_DIRECT,
    NATURALLY_INVERSE,
    SYMMETRY,
    BandDescriptor,
    StringDescriptor,
    Word,
    band_shape,
    band_symmetries,
    classify_position,
    compare,
    enumerate_bands,
    enumerate_strings,
    finite_word,
    invert_word,
    is_end_admissible,
    is_relation_admissible,
    is_right_end_admissible,
    periodic_word,
    prefix_inverse,
    suffix,
    symmetric_decomposition,
    trivial_word,
    vertex_at,
    word_key,
)
from library_reference import canonical_string_word, concat_words, position_norm, shift_word

S = Letter("s", "s")
A = Letter("d", "a")
AI = Letter("i", "a")
X = Letter("d", "x")
XI = Letter("i", "x")
Y = Letter("d", "y")
YI = Letter("i", "y")


def long_symmetric_string(E1):
    return finite_word(E1, "1", 1, [S, AI, S, A, S, AI, S, A, S])


def test_word_validation(E1):
    with pytest.raises(NonConcatenable):
        finite_word(E1, "1", 1, [S, S])  # stars cannot repeat
    with pytest.raises(NonConcatenable):
        finite_word(E1, "1", -1, [S])  # sign of s* is +1
    w = finite_word(E1, "1", 1, [S, A, S])
    assert vertex_at(E1, w, 2) == "1"


@pytest.mark.parametrize("length", [0, 2])
def test_vertex_at_raises_past_the_end_of_every_finite_word(GP2, length):
    w = trivial_word(GP2, "1", 1) if length == 0 else enumerate_strings(GP2, 2)[-1].word
    assert len(w.letters) == length
    assert vertex_at(GP2, w, 0) == w.v0
    for i in (length + 1, 5, -1, -3):
        with pytest.raises(IndexError):
            vertex_at(GP2, w, i)


def test_invert_examples(E1):
    w = finite_word(E1, "1", 1, [S, A, S])
    wi = invert_word(E1, w)
    assert wi.letters == (S, AI, S)
    assert invert_word(E1, trivial_word(E1, "1", 1)) == trivial_word(E1, "1", -1)
    assert invert_word(E1, invert_word(E1, w)) == w


def test_shift_periodic(E1):
    w = periodic_word(E1, [S, A])
    assert shift_word(E1, w, 2) == w
    assert shift_word(E1, w, 1).period == (A, S)
    assert shift_word(E1, shift_word(E1, w, 1), 1) == w


def test_concat(E1):
    u = finite_word(E1, "1", 1, [S])
    w = finite_word(E1, "1", -1, [A, S])
    joined = concat_words(E1, u, w)
    assert joined.letters == (S, A, S)
    with pytest.raises(NonConcatenable):
        concat_words(E1, u, finite_word(E1, "1", 1, [S]))
    triv = trivial_word(E1, "1", 1)
    assert concat_words(E1, triv, u) == u


def test_suffix_prefix_split(E1):
    w = long_symmetric_string(E1)
    for i in range(0, 10):
        left = prefix_inverse(E1, w, i)
        right = suffix(E1, w, i)
        # w[i] = w_{<=i} w_{>i}: gluing back gives the original word
        rebuilt = concat_words(E1, invert_word(E1, left), right)
        assert rebuilt.letters == w.letters


def test_end_admissibility_examples(E1, GP2):
    assert not is_end_admissible(E1, finite_word(E1, "1", -1, [A]))
    assert is_end_admissible(E1, finite_word(E1, "1", 1, [S, A, S]))
    w3 = finite_word(GP2, "1", 1, [X, X, X])
    assert not is_relation_admissible(GP2, w3)
    assert is_relation_admissible(GP2, finite_word(GP2, "1", 1, [X, X]))
    # trivial word end-admissible only without special loops
    assert not is_end_admissible(E1, trivial_word(E1, "1", 1))
    assert is_end_admissible(GP2, trivial_word(GP2, "1", 1))


def test_end_admissible_matches_two_sided_definition(E1, GP2):
    rng = random.Random(5)
    for pres in (E1, GP2):
        descs = enumerate_strings(pres, 5)
        for d in descs:
            w = d.word
            assert is_right_end_admissible(pres, w)
            assert is_right_end_admissible(pres, invert_word(pres, w))


def test_compare_spec_examples(E1):
    u1 = finite_word(E1, "1", -1, [A, S])
    assert compare(E1, u1, trivial_word(E1, "1", -1)) == -1  # case (b)
    u2 = finite_word(E1, "1", -1, [AI, S])
    assert compare(E1, trivial_word(E1, "1", -1), u2) == -1  # case (c)
    w1 = finite_word(E1, "1", 1, [S, A, S])
    w2 = finite_word(E1, "1", 1, [S, AI, S])
    assert compare(E1, w1, w2) == -1  # case (a)
    assert compare(E1, w1, w1) == 0
    with pytest.raises(NotComparable):
        compare(E1, w1, trivial_word(E1, "1", -1))


def test_compare_total_order_on_samples(E1, GP2):
    for pres, maxlen in ((E1, 6), (GP2, 4)):
        words = set()
        for d in enumerate_strings(pres, maxlen):
            w = d.word
            words.add((w.v0, w.eps, w.letters))
            wi = invert_word(pres, w)
            words.add((wi.v0, wi.eps, wi.letters))
        by_heads = {}
        for v0, eps, letters in words:
            w = Word("finite", v0, eps, letters)
            if is_right_end_admissible(pres, w):
                by_heads.setdefault((v0, eps), []).append(w)
        for group in by_heads.values():
            for u, w in itertools.combinations(group, 2):
                cuw, cwu = compare(pres, u, w), compare(pres, w, u)
                assert cuw == -cwu
                assert (cuw == 0) == (u == w)
            # transitivity via sorting consistency
            keyed = sorted(
                group,
                key=lambda x: [
                    compare(pres, x, y) for y in group
                ].count(1),
            )
            for i in range(len(keyed) - 1):
                assert compare(E1 if pres is E1 else pres, keyed[i], keyed[i + 1]) <= 0


def test_classify_position_worked_string(E1):
    w = long_symmetric_string(E1)
    assert classify_position(E1, w, 5) == SYMMETRY
    assert classify_position(E1, w, 3) == NATURALLY_INVERSE
    assert classify_position(E1, w, 7) == NATURALLY_DIRECT
    assert classify_position(E1, w, 1) == NATURALLY_INVERSE
    assert classify_position(E1, w, 9) == NATURALLY_DIRECT
    single = finite_word(E1, "1", 1, [S])
    assert classify_position(E1, single, 1) == SYMMETRY
    with pytest.raises(NotStarLetter):
        classify_position(E1, w, 2)


def test_norms_worked_string(E1):
    w = long_symmetric_string(E1)
    # the symmetry of a finite word has norm equal to the arm length
    assert position_norm(E1, w, 5) == 4
    assert position_norm(E1, w, 3) == 2
    assert position_norm(E1, w, 7) == 2
    assert position_norm(E1, w, 1) == 0
    band = periodic_word(E1, [S, A, S, AI, S, AI, S, A])
    for i in band_symmetries(E1, band):
        assert position_norm(E1, band, i) is None


def test_norm_induction_property(E1):
    # naturally inverse i with star letters at i +- j (0 < j <= norm(i)):
    # one of them is naturally direct with strictly smaller norm, unless a
    # symmetry absorbs the step
    cases = 0
    wordlist = [long_symmetric_string(E1)] + [
        d.word for d in enumerate_strings(E1, 9)
    ] + [d.word for d in enumerate_bands(E1, 8)]
    for w in wordlist:
        top = len(w.letters) if w.shape == "finite" else len(w.period)
        for i in range(1, top + 1):
            letter = w.letter_at(i)
            if letter is None or not letter.is_star:
                continue
            if classify_position(E1, w, i) != NATURALLY_INVERSE:
                continue
            nm = position_norm(E1, w, i)
            for j in range(1, nm + 1):
                li, lj = w.letter_at(i - j), w.letter_at(i + j)
                if not (li is not None and li.is_star and lj is not None and lj.is_star):
                    continue
                cases += 1
                ok = False
                for cand in (i - j, i + j):
                    cls = classify_position(E1, w, cand)
                    if cls == SYMMETRY:
                        ok = True
                    elif cls == NATURALLY_DIRECT:
                        other = position_norm(E1, w, cand)
                        if other is not None and other < nm:
                            ok = True
                assert ok, (repr(w), i, j)
    assert cases > 0


def test_enumerate_strings_examples(E1, GP2):
    e1 = enumerate_strings(E1, 3)
    assert [repr(d.word) for d in e1] == ["s*", "s*as*"]
    assert [d.symmetric for d in e1] == [True, False]
    gp = enumerate_strings(GP2, 1)
    reps = {repr(d.word) for d in gp}
    assert reps == {"1_(1,+1)", "x", "y"}


def test_enumerate_bands_examples(E1):
    bands = enumerate_bands(E1, 4)
    assert len(bands) == 2
    asym = [d for d in bands if not d.symmetric]
    sym = [d for d in bands if d.symmetric]
    assert len(asym) == 1 and len(sym) == 1
    assert len(asym[0].word.period) == 2
    assert len(sym[0].word.period) == 4
    form = symmetric_decomposition(E1, sym[0])
    assert (form.p, form.r) == (0, 1)
    assert form.u.letters == ()
    assert form.v.letters == (A,)
    assert form.s == form.t == "s"


def test_enumeration_closed_under_equivalence(E1, GP2):
    for pres in (E1, GP2):
        strings = enumerate_strings(pres, 4)
        keys = {word_key(pres, d.word) for d in strings}
        for d in strings:
            assert word_key(pres, canonical_string_word(pres, invert_word(pres, d.word))) in keys
        bands = enumerate_bands(pres, 4)
        bkeys = {tuple(l.key() for l in d.word.period) for d in bands}
        for d in bands:
            for sh in range(len(d.word.period)):
                rotated = shift_word(pres, d.word, sh)
                assert tuple(l.key() for l in band_shape(rotated.period).canonical) in bkeys
                inv = invert_word(pres, rotated)
                assert tuple(l.key() for l in band_shape(inv.period).canonical) in bkeys


def test_band_symmetry_shift_relation(E1):
    # i is a symmetry iff w^-1 == w[2i]
    w = periodic_word(E1, [S, A, S, AI, S, AI, S, A])
    wi = invert_word(E1, w)
    for i in band_symmetries(E1, w):
        assert shift_word(E1, w, 2 * i).period == wi.period
    assert band_symmetries(E1, w) == [3, 7]


def test_symmetric_decomposition_worked_band(E1):
    w = periodic_word(E1, [S, A, S, AI, S, AI, S, A])
    form = symmetric_decomposition(E1, BandDescriptor(w, True))
    assert (form.p, form.r) == (1, 2)
    assert form.u.letters == (A,)
    assert form.v.letters == (S, A)
    assert form.s == form.t == "s"


def test_symmetric_decomposition_string(E1):
    w = long_symmetric_string(E1)
    form = symmetric_decomposition(E1, StringDescriptor(w, True))
    assert form.k == 4
    assert form.s == "s"
    assert form.u.letters == (S, AI, S, A)
    with pytest.raises(NotSymmetric):
        symmetric_decomposition(E1, StringDescriptor(finite_word(E1, "1", 1, [S, A, S]), False))


def test_string_symmetry_iff_palindrome(E1, GP2):
    for pres in (E1, GP2):
        for d in enumerate_strings(pres, 5):
            assert d.symmetric == (d.word == invert_word(pres, d.word))


ONE_LOOP = {
    "field": {"p": 2, "n": 1},
    "vertices": ["1"],
    "arrows": [{"name": "a", "from": "1", "to": "1"}],
    "zero_relations": [],
}


def test_bounds_beyond_the_recursion_limit():
    # the searches run on an explicit stack; a recursive one failed with
    # RecursionError once the bound passed the interpreter's limit
    pres = presentation_from_json(ONE_LOOP)
    n = sys.getrecursionlimit() + 1
    strings = enumerate_strings(pres, n)
    assert [d.word.letters for d in strings] == [(A,) * k for k in range(n + 1)]
    assert [d.word.period for d in enumerate_bands(pres, n)] == [(A,)]
