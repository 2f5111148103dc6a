"""Words over a presentation: the total order, admissibility predicates,
symmetry classification, and enumeration of strings and bands.

A word is a signed chain of letters (direct/inverse ordinary letters and
self-inverse star letters).  A walk is a word of the same record whose
letters are of kind 'd' or 'i' only (``walks``).  Four shapes appear:
finite, right-infinite eventually periodic (for suffix/prefix-inverse views
of bands), Z-indexed periodic, and, for walks only, Z-indexed with separate
blocks for the positive and the non-positive indices ('ztwo').  Comparisons
between eventually periodic words are decided on a finite horizon past which
both sides are in periodic lock-step.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    NonConcatenable,
    NotComparable,
    NotStarLetter,
    NotSymmetric,
)
from .presentation import Letter

SYMMETRY = "symmetry"
NATURALLY_DIRECT = "direct"
NATURALLY_INVERSE = "inverse"


class Word(NamedTuple):
    shape: str  # 'finite' | 'right' | 'zper' | 'ztwo'
    v0: str
    eps: int
    letters: tuple = ()  # finite: all letters; right: the prefix; z*: unused
    period: tuple = ()  # right: repeating block; zper: block w_1..w_m; ztwo: block for i >= 1
    neg_period: tuple = ()  # ztwo: block with w_0 = neg[0], w_{-j} = neg[j % m]

    def letter_at(self, i):
        """w_i, or None when i is outside the index set."""
        if self.shape == "finite":
            return self.letters[i - 1] if 1 <= i <= len(self.letters) else None
        if self.shape == "right":
            if i < 1:
                return None
            k = len(self.letters)
            if i <= k:
                return self.letters[i - 1]
            return self.period[(i - k - 1) % len(self.period)]
        if self.shape == "ztwo" and i < 1:
            return self.neg_period[(-i) % len(self.neg_period)]
        return self.period[(i - 1) % len(self.period)]

    def __repr__(self):
        if self.shape == "finite":
            body = "".join(repr(l) for l in self.letters) or f"1_({self.v0},{self.eps:+d})"
            return body
        if self.shape == "right":
            return "".join(repr(l) for l in self.letters) + "(" + "".join(repr(l) for l in self.period) + ")^inf"
        if self.shape == "ztwo":
            return (
                "...(" + "".join(repr(l) for l in reversed(self.neg_period)) + ")|("
                + "".join(repr(l) for l in self.period) + ")..."
            )
        return "inf(" + "".join(repr(l) for l in self.period) + ")inf"


def trivial_word(pres, vertex, eps):
    return Word("finite", vertex, eps, ())


def finite_word(pres, v0, eps, letters):
    return validate_word(pres, Word("finite", v0, eps, tuple(letters)))


def periodic_word(pres, block, check=True):
    block = tuple(block)
    w = Word("zper", pres.head(block[0]), pres.sign(block[0]), (), block)
    if check:
        validate_word(pres, w)
    return w


def vertex_at(pres, w, i):
    """v_i(w)."""
    if i == 0:
        return w.v0
    if i > 0 or w.shape in ("zper", "ztwo"):
        letter = w.letter_at(i)
        if letter is None:
            raise IndexError(f"index {i} outside the word")
        return pres.tail(letter)
    raise IndexError(f"index {i} outside the word")


def _chain_ok(pres, x, y):
    """Conditions for y to follow x: vertices chain, signs alternate."""
    return pres.tail(x) == pres.head(y) and pres.sign(x.inverse()) == -pres.sign(y)


def validate_word(pres, w):
    if w.eps not in (1, -1):
        raise NonConcatenable("sign must be +-1")
    if w.shape == "finite":
        seq = w.letters
        if seq:
            if pres.head(seq[0]) != w.v0 or pres.sign(seq[0]) != w.eps:
                raise NonConcatenable("first letter disagrees with head vertex or sign")
            for x, y in zip(seq, seq[1:]):
                if not _chain_ok(pres, x, y):
                    raise NonConcatenable(f"letters {x!r},{y!r} do not chain")
        return w
    if w.shape == "right":
        if not w.period:
            raise NonConcatenable("right-infinite word needs a nonempty period")
        seq = list(w.letters) + list(w.period) + [w.period[0]]
        if pres.head(seq[0]) != w.v0 or pres.sign(seq[0]) != w.eps:
            raise NonConcatenable("first letter disagrees with head vertex or sign")
        for x, y in zip(seq, seq[1:]):
            if not _chain_ok(pres, x, y):
                raise NonConcatenable(f"letters {x!r},{y!r} do not chain")
        return w
    if w.shape == "zper":
        block = w.period
        if not block:
            raise NonConcatenable("periodic word needs a nonempty block")
        for j in range(len(block)):
            x, y = block[j], block[(j + 1) % len(block)]
            if not _chain_ok(pres, x, y):
                raise NonConcatenable(f"letters {x!r},{y!r} do not chain cyclically")
        return w
    raise NonConcatenable(f"unknown word shape {w.shape!r}")


# -- elementary operations ---------------------------------------------------


def invert_word(pres, w):
    if w.shape == "finite":
        if not w.letters:
            return Word("finite", w.v0, -w.eps, ())
        letters = tuple(l.inverse() for l in reversed(w.letters))
        v0 = pres.tail(w.letters[-1])
        return Word("finite", v0, pres.sign(letters[0]), letters)
    if w.shape == "zper":
        block = _band_inverse_block(w.period)
        return Word("zper", pres.head(block[0]), pres.sign(block[0]), (), block)
    raise NonConcatenable("cannot invert a one-sided infinite word")


def _band_inverse_block(block):
    m = len(block)
    return tuple(block[(-j - 2) % m].inverse() for j in range(m))


def suffix(pres, w, i):
    """The word w_{>i}."""
    if w.shape == "finite":
        n = len(w.letters)
        if not 0 <= i <= n:
            raise IndexError(f"index {i} outside the word")
        letters = w.letters[i:]
        if letters:
            eps = pres.sign(letters[0])
        elif i >= 1:
            eps = -pres.sign(w.letters[i - 1].inverse())
        else:
            eps = w.eps
        return Word("finite", vertex_at(pres, w, i), eps, letters)
    if w.shape == "zper" or (w.shape == "ztwo" and i >= 0):
        m = len(w.period)
        block = tuple(w.period[(i + j) % m] for j in range(m))
        return Word("right", vertex_at(pres, w, i), pres.sign(block[0]), (), block)
    if w.shape == "ztwo":
        # the letters up to index 0 from the non-positive side, then the block
        prefix = tuple(w.letter_at(j) for j in range(i + 1, 1))
        return Word("right", vertex_at(pres, w, i), pres.sign(prefix[0]), prefix, w.period)
    # right-infinite
    k = len(w.letters)
    if i < 0:
        raise IndexError("negative index on a right-infinite word")
    if i <= k:
        prefix = w.letters[i:]
        block = w.period
    else:
        prefix = ()
        s = (i - k) % len(w.period)
        block = tuple(w.period[(s + j) % len(w.period)] for j in range(len(w.period)))
    first = prefix[0] if prefix else block[0]
    return Word("right", vertex_at(pres, w, i), pres.sign(first), prefix, block)


def prefix_inverse(pres, w, i):
    """The word (w_{<=i})^{-1}."""
    if w.shape == "finite":
        n = len(w.letters)
        if not 0 <= i <= n:
            raise IndexError(f"index {i} outside the word")
        letters = tuple(w.letters[j].inverse() for j in range(i - 1, -1, -1))
        eps = pres.sign(letters[0]) if letters else -w.eps
        return Word("finite", vertex_at(pres, w, i), eps, letters)
    if w.shape == "zper":
        m = len(w.period)
        block = tuple(w.period[(i - 1 - j) % m].inverse() for j in range(m))
        return Word("right", vertex_at(pres, w, i), pres.sign(block[0]), (), block)
    if w.shape == "ztwo":
        m = len(w.period)
        at = w.letter_at
        # the letters down to index 1 from the positive side, then the
        # inverted block of the non-positive side
        prefix = tuple(at(j).inverse() for j in range(i, 0, -1))
        block = tuple(at(min(i, 0) - j).inverse() for j in range(m))
        first = prefix[0] if prefix else block[0]
        return Word("right", vertex_at(pres, w, i), pres.sign(first), prefix, block)
    # right-infinite: w_{<=i} is finite
    if i < 0:
        raise IndexError("negative index on a right-infinite word")
    letters = tuple(w.letter_at(j).inverse() for j in range(i, 0, -1))
    eps = pres.sign(letters[0]) if letters else -w.eps
    return Word("finite", vertex_at(pres, w, i), eps, letters)


# -- admissibility -----------------------------------------------------------


class _WordTables(NamedTuple):
    patterns: frozenset  # zero relations as letter tuples, both directions
    longest: int  # length of the longest zero relation, 0 when there is none
    rank: dict  # letter -> its place in Letter.key order
    inverse_rank: dict  # letter -> the rank of its inverse
    successors: dict  # letter -> the letters that may follow it


def _word_tables(pres):
    """What the enumerators and the admissibility test read of a
    presentation, built once per presentation object."""
    if pres._word_tables is None:
        pats = set()
        for r in pres.zero_relations:
            fwd = tuple(
                Letter("s", a) if a in pres.special else Letter("d", a) for a in r
            )
            pats.add(fwd)
            pats.add(tuple(l.inverse() for l in reversed(fwd)))
        letters = sorted(pres.letters(), key=Letter.key)
        rank = {l: r for r, l in enumerate(letters)}
        pres._word_tables = _WordTables(
            frozenset(pats),
            max(map(len, pats), default=0),
            rank,
            {l: rank[l.inverse()] for l in letters},
            {l: tuple(_extensions(pres, l)) for l in letters},
        )
    return pres._word_tables


def _hits_pattern(seq, tables, start=0):
    """Whether a window of seq that ends at index ``start`` or later (a slice
    end) spells a zero relation.  Windows run from length 2 up to the longest
    relation, so ``start=len(seq)`` tests the suffixes alone."""
    pats = tables.patterns
    for end in range(max(start, 2), len(seq) + 1):
        for k in range(2, min(end, tables.longest) + 1):
            if tuple(seq[end - k : end]) in pats:
                return True
    return False


def is_relation_admissible(pres, w):
    tables = _word_tables(pres)
    seq = w.letters
    if w.shape != "finite":
        # enough periods that every window starting in the first one fits
        seq += w.period * (-(-tables.longest // len(w.period)) + 1)
    return not _hits_pattern(seq, tables)


def right_end(pres, w):
    """(v_n, need) for a finite word of length n: the vertex it ends at and
    the sign of the trivial word w_{>n} there, which a next letter would
    need (eps itself when n = 0)."""
    n = len(w.letters)
    return vertex_at(pres, w, n), (-pres.sign(w.letters[-1].inverse()) if n else w.eps)


def is_admissible_end(pres, v, need):
    """Whether a finite word may end at v with need: no special loop there
    has that sign, so no star letter could follow."""
    return all(pres.sign(Letter("s", s)) != need for s in pres.specials_at(v))


def is_right_end_admissible(pres, w):
    return w.shape != "finite" or is_admissible_end(pres, *right_end(pres, w))


def is_end_admissible(pres, w):
    if w.shape == "finite":
        idx = range(0, len(w.letters) + 1)
    elif w.shape == "zper":
        idx = range(1, len(w.period) + 1)
    else:
        idx = range(0, len(w.letters) + len(w.period) + 1)
    for i in idx:
        v = vertex_at(pres, w, i)
        for s in pres.specials_at(v):
            star = Letter("s", s)
            here = w.letter_at(i) == star if i != 0 or w.shape == "zper" else False
            nxt = w.letter_at(i + 1) == star
            if not (here or nxt):
                return False
    return True


# -- the total order on H(l, eps) --------------------------------------------


def _horizon(u, w):
    lens = []
    for x in (u, w):
        if x.shape == "finite":
            lens.append((len(x.letters), 1))
        else:
            lens.append((len(x.letters), len(x.period)))
    pre = max(l[0] for l in lens)
    per = math.lcm(lens[0][1], lens[1][1])
    return pre + 2 * per + 2


def compare(pres, u, w):
    """-1, 0 or +1 for u < w, u == w, u > w in H(l, eps)."""
    if u.v0 != w.v0 or u.eps != w.eps:
        raise NotComparable("words live in different H(l, eps)")
    if u.shape == "zper" or w.shape == "zper":
        raise NotComparable("two-sided words are not ordered")
    if not (is_right_end_admissible(pres, u) and is_right_end_admissible(pres, w)):
        raise NotComparable("order is defined on right-end-admissible words only")
    for i in range(1, _horizon(u, w) + 1):
        x, y = u.letter_at(i), w.letter_at(i)
        if x is None and y is None:
            return 0
        if x is not None and y is not None:
            if x == y:
                continue
            if x.kind == "d" and y.kind == "i":
                return -1
            if x.kind == "i" and y.kind == "d":
                return 1
            raise NotComparable(f"letters {x!r},{y!r} cannot disagree here")
        if x is None:
            return 1 if y.kind == "d" else -1
        return -1 if x.kind == "d" else 1
    return 0


def classify_position(pres, w, i):
    """SYMMETRY, NATURALLY_DIRECT or NATURALLY_INVERSE for a star position."""
    letter = w.letter_at(i)
    if letter is None or not letter.is_star:
        raise NotStarLetter(f"position {i} does not hold a star letter")
    left = prefix_inverse(pres, w, i - 1)
    right = suffix(pres, w, i)
    c = compare(pres, left, right)
    if c == 0:
        return SYMMETRY
    return NATURALLY_DIRECT if c > 0 else NATURALLY_INVERSE


# -- strings and bands --------------------------------------------------------


class StringDescriptor(NamedTuple):
    word: Word
    symmetric: bool

    @property
    def kind(self):
        return "sym_string" if self.symmetric else "asym_string"


class BandDescriptor(NamedTuple):
    word: Word
    symmetric: bool

    @property
    def kind(self):
        return "sym_band" if self.symmetric else "asym_band"


def word_key(pres, w):
    letters = w.letters if w.shape == "finite" else w.period
    return (w.shape, len(letters), tuple(l.key() for l in letters), w.v0, 0 if w.eps == 1 else 1)


def _first_letters(pres, v0, eps):
    # end-admissibility at position 0 forces w_1 to be the star of any
    # special loop at v0; two special loops leave no end-admissible word
    specials = pres.specials_at(v0)
    if len(specials) > 1:
        return []
    out = []
    for letter in pres.letters():
        if pres.head(letter) != v0 or pres.sign(letter) != eps:
            continue
        if specials and letter != Letter("s", specials[0]):
            continue
        out.append(letter)
    return out


def _extensions(pres, last):
    v = pres.tail(last)
    need = -pres.sign(last.inverse())
    return [
        l for l in pres.letters() if pres.head(l) == v and pres.sign(l) == need
    ]


def enumerate_strings(pres, max_len):
    """Canonical representatives of all strings of length <= max_len: only
    the trivial strings when max_len is 0, and none when it is negative."""
    if max_len < 0:
        return []
    tables = _word_tables(pres)
    rank, inverse_rank = tables.rank, tables.inverse_rank
    found = []

    def emit(seq, codes, inverse_codes):
        # every letter sequence is generated once, and so is its inverse:
        # keep the word when it sorts no later than its inverse.  The first
        # letter fixes v0 and eps, so word_key order on words of one length
        # is the order of their letter ranks.
        if codes <= inverse_codes:
            word = Word("finite", pres.head(seq[0]), pres.sign(seq[0]), seq)
            found.append(((len(seq), codes), StringDescriptor(word, codes == inverse_codes)))

    # a trivial word sorts before its inverse, which differs only in eps
    for v in sorted(pres.vertices):
        if not pres.specials_at(v):
            found.append(((0, (), v), StringDescriptor(trivial_word(pres, v, 1), False)))

    def interior_ok(seq):
        # end-admissibility at the vertex between the last two letters
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

    # depth first on an explicit stack, so no bound meets the recursion
    # limit; each entry carries the letter ranks of its sequence and of the
    # inverse sequence, which grows at the front
    stack = []
    if max_len >= 1:
        for v0 in sorted(pres.vertices):
            for eps in (1, -1):
                stack += [
                    ((letter,), (rank[letter],), (inverse_rank[letter],))
                    for letter in _first_letters(pres, v0, eps)
                ]
    while stack:
        seq, codes, inverse_codes = stack.pop()
        if end_ok(seq):
            emit(seq, codes, inverse_codes)
        if len(seq) < max_len:
            for letter in tables.successors[seq[-1]]:
                grown = seq + (letter,)
                if interior_ok(grown) and not _hits_pattern(grown, tables, len(grown)):
                    stack.append(
                        (grown, codes + (rank[letter],), (inverse_rank[letter],) + inverse_codes)
                    )

    return [d for _, d in sorted(found, key=lambda kd: kd[0])]


class BandShape(NamedTuple):
    canonical: tuple
    primitive: bool
    symmetric: bool


def band_shape(block):
    """The canonical block of a band block, and whether it is primitive and
    symmetric.

    The canonical block is the least rotation of the block or of its band
    inverse in ``Letter.key`` order; rotations are compared as tuples of
    letter ranks.  The block is primitive when no proper rotation fixes it,
    and symmetric when its band inverse is one of its rotations.
    """
    m = len(block)
    inverse = _band_inverse_block(block)
    letters = sorted(set(block + inverse), key=Letter.key)
    rank = {l: r for r, l in enumerate(letters)}
    codes = tuple(rank[l] for l in block) * 2
    inverse_codes = tuple(rank[l] for l in inverse) * 2
    rotations = {codes[d : d + m] for d in range(m)}
    least = min(rotations | {inverse_codes[d : d + m] for d in range(m)})
    return BandShape(
        tuple(letters[r] for r in least), len(rotations) == m, inverse_codes[:m] in rotations
    )


def descriptor_of(pres, word):
    """The string or band descriptor of a word as given, not canonicalised."""
    if word.shape == "zper":
        return BandDescriptor(word, band_shape(word.period).symmetric)
    return StringDescriptor(word, word == invert_word(pres, word))


def enumerate_bands(pres, max_period):
    """Canonical representatives of all bands of period <= max_period (none
    when max_period < 1).

    A canonical block is primitive and its own least rotation in
    ``Letter.key`` order, so it is a Lyndon word, and every prefix of a
    Lyndon word is a prenecklace.  The search therefore grows prenecklaces
    alone, in the manner of Fredricksen, Kessler and Maiorana, carrying p, the
    length of the longest Lyndon prefix of the sequence: a next letter ranked
    below ``seq[-p]`` leaves no prenecklace, one ranked equal keeps p, one
    ranked above makes the whole sequence Lyndon.  Only Lyndon sequences are
    closed into blocks, and ``band_shape`` settles the inverse rotations and
    the symmetry.
    """
    tables = _word_tables(pres)
    rank, longest = tables.rank, tables.longest
    found = []

    def try_close(seq):
        first, last = seq[0], seq[-1]
        if pres.tail(last) != pres.head(first):
            return
        if pres.sign(last.inverse()) != -pres.sign(first):
            return
        # the windows inside the block were tested while it grew; test the
        # ones that cross the seam into the next period
        m = len(seq)
        if _hits_pattern([seq[j % m] for j in range(m + longest - 1)], tables, m + 1):
            return
        # a Lyndon block is primitive and least among its own rotations
        shape = band_shape(seq)
        if shape.canonical == seq:
            found.append(BandDescriptor(periodic_word(pres, seq, check=False), shape.symmetric))

    # depth first on an explicit stack, so no bound meets the recursion limit
    stack = [((letter,), 1) for letter in rank] if max_period >= 1 else []
    while stack:
        seq, p = stack.pop()
        m = len(seq)
        if p == m:
            try_close(seq)
        if m < max_period:
            least = rank[seq[-p]]
            for letter in tables.successors[seq[-1]]:
                r = rank[letter]
                if r >= least:
                    grown = seq + (letter,)
                    if not _hits_pattern(grown, tables, m + 1):
                        stack.append((grown, p if r == least else m + 1))
    return sorted(found, key=lambda d: word_key(pres, d.word))


class SymmetricStringForm(NamedTuple):
    u: Word
    s: str
    k: int


class SymmetricBandForm(NamedTuple):
    u: Word
    v: Word
    s: str
    t: str
    p: int
    r: int


def band_symmetries(pres, w):
    """Symmetry positions of a periodic word within one period window 1..m."""
    out = []
    for i in range(1, len(w.period) + 1):
        letter = w.letter_at(i)
        if letter is not None and letter.is_star:
            if classify_position(pres, w, i) == SYMMETRY:
                out.append(i)
    return out


def symmetric_decomposition(pres, desc):
    """The (u, s) or (u, v, s, t, p, r) shape of a symmetric string or band."""
    w = desc.word
    if not desc.symmetric:
        raise NotSymmetric("descriptor is not symmetric")
    if isinstance(desc, StringDescriptor):
        n = len(w.letters)
        k = (n - 1) // 2
        center = w.letters[k]
        if n % 2 == 0 or not center.is_star:
            raise NotSymmetric("symmetric string must have odd length with a star center")
        u = Word("finite", w.v0, w.eps, w.letters[:k]) if k else trivial_word(pres, w.v0, w.eps)
        return SymmetricStringForm(u=u, s=center.name, k=k)
    syms = band_symmetries(pres, w)
    if not syms:
        raise NotSymmetric("no symmetry found in one period")
    m = len(w.period)
    n = m // 2
    s0 = syms[0]
    j1 = s0 % n
    if j1 > 0:
        j1 -= n
    p = -j1
    r = n - 1 - p
    t_letter = w.letter_at(j1)
    s_letter = w.letter_at(r + 1)
    u_letters = tuple(w.letter_at(j) for j in range(-p + 1, 1))
    v_letters = tuple(w.letter_at(j) for j in range(1, r + 1))
    u = (
        Word("finite", vertex_at(pres, w, -p), pres.sign(u_letters[0]), u_letters)
        if u_letters
        else trivial_word(pres, vertex_at(pres, w, 0), -pres.sign(t_letter))
    )
    v = (
        Word("finite", vertex_at(pres, w, 0), pres.sign(v_letters[0]), v_letters)
        if v_letters
        else trivial_word(pres, vertex_at(pres, w, 0), w.eps)
    )
    return SymmetricBandForm(u=u, v=v, s=s_letter.name, t=t_letter.name, p=p, r=r)
