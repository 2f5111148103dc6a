"""One-sided walk filtrations, the top/bottom subquotient dimension, and the
module decomposition report driven by the dimension formula."""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotRightEndAdmissible, SpaceMismatch
from .linalg import Subspace, is_k_stable, k_dim
from .presentation import Letter
from .relations import _iterate, walk_letter_relation
from .walks import RwSpec, WalkShape, walk_shape
from . import words as words_mod


def _extension_arrows(pres, v, need):
    """(a^-1, b): the letters that extend a walk ending at v with sign need,
    a^-1 for D^+ and b for D^-, None where there is none."""
    plus = minus = None
    for name in pres.ordinary_arrows():
        if pres.arrows[name].source == v and pres.sign(Letter("i", name)) == need:
            plus = Letter("i", name)
        if pres.arrows[name].target == v and pres.sign(Letter("d", name)) == need:
            minus = Letter("d", name)
    return plus, minus


def _image(rep, letter, sub):
    """R(letter)(sub), memoised per module by (letter, subspace).

    Many suffixes reach the same subspace, so the suffix memo alone takes
    the same image again.  The key holds the walk letter's kind as well as
    its name, since R(s) and R(s^-1) differ, and the canonical ``Subspace``,
    which compares on its reduced basis.
    """
    cache = rep._filtration_cache
    key = ("I", letter, sub)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = walk_letter_relation(rep, letter).image(sub)
    return hit


def _finite_start(rep, v, need):
    """(D^+, D^-) of the trivial walk at v with sign need: a^-1(0) = ker a
    and b(full) = im b, or full and 0 where no letter extends it.  Both
    images go through the (letter, subspace) memo ``_image``."""
    pres, p = rep.pres, rep.field.p
    plus_letter, minus_letter = _extension_arrows(pres, v, need)
    if plus_letter is not None:
        zero = Subspace.zero(p, rep.prime_dim(pres.tail(plus_letter)))
        plus = _image(rep, plus_letter, zero)
    else:
        plus = Subspace.full(p, rep.prime_dim(v))
    if minus_letter is not None:
        full = Subspace.full(p, rep.prime_dim(pres.tail(minus_letter)))
        minus = _image(rep, minus_letter, full)
    else:
        minus = Subspace.zero(p, rep.prime_dim(v))
    return plus, minus


def _tail_pair(rep, period):
    """(D^+, D^-) of the periodic tail of period l1...ln: the stable image and
    stable kernel of R = R(l1...ln), without building R.

    The iteration U -> l1(l2(...ln(U))) starts from the bound (R(full), R(0))
    that the ("span", v) root holds and takes every image through the
    (letter, subspace) memo ``_image``.  (R o S)(U) = R(S(U)), so it passes
    through the same spaces as the iteration of R.
    """
    span = ("span", rep.pres.tail(period[-1]))

    def step(space):
        for letter in reversed(period):
            space = _image(rep, letter, space)
        return space

    upper, lower = _suffix_plus_minus(rep, period, span)
    return _iterate(step, upper), _iterate(step, lower)


def _suffix_plus_minus(rep, letters, end):
    """D^+ and D^- of l1...ln C' as l1(D(l2...ln C')), memoised per module by suffix.

    ``end`` names what follows the letters: ("finite", v, need) for the
    trivial walk at v, ("right", period) for the periodic tail, or
    ("span", v) for the pair (full, 0) at v, from which the letters of a
    period R = R(l1...ln) carry the bound (R(full), R(0)).  Under this memo
    each image l1(U) is memoised by (l1, U) (``_image``), so suffixes that
    reach the same subspace share it.
    """
    cache = rep._filtration_cache
    key = ("D", letters, end)
    hit = cache.get(key)
    if hit is None:
        if letters:
            plus, minus = _suffix_plus_minus(rep, letters[1:], end)
            hit = (_image(rep, letters[0], plus), _image(rep, letters[0], minus))
        elif end[0] == "finite":
            hit = _finite_start(rep, end[1], end[2])
        elif end[0] == "span":
            p, d = rep.field.p, rep.prime_dim(end[1])
            hit = (Subspace.full(p, d), Subspace.zero(p, d))
        else:
            hit = _tail_pair(rep, end[1])
        cache[key] = hit
    return hit


def _open_pair(rep, letters, end):
    """(D^+, D^-) of l1...ln C' while its gap dim D^+ - dim D^- is open
    (positive), or None once it is closed; memoised per module by suffix.

    Prepending a letter maps both spaces through its relation R, and
    gap(R(U), R(W)) <= gap(U, W) for W <= U, so a closed suffix closes every
    walk that ends in it and takes no image.  A periodic tail is closed when the bound
    (R(full), R(0)) of its period is: R(0) <= lower <= upper <= R(full) for
    its stable pair.  Every root checks D^- <= D^+, which the gap needs.
    """
    cache = rep._filtration_cache
    key = ("O", letters, end)
    if key in cache:
        return cache[key]
    if letters:
        closed = _open_pair(rep, letters[1:], end) is None
    elif end[0] == "right":
        period = end[1]
        span = ("span", rep.pres.tail(period[-1]))
        closed = _open_pair(rep, period, span) is None
    else:
        closed = False
    hit = None
    if not closed:
        plus, minus = _suffix_plus_minus(rep, letters, end)
        if not letters and not minus <= plus:
            raise SpaceMismatch("a walk filtration starts with D^- outside D^+")
        if plus.dim > minus.dim:
            hit = (plus, minus)
    cache[key] = hit
    return hit


def _finite_end(pres, v, need):
    """The memo root ("finite", v, need) of a walk that ends at v with
    need, once that end is known to be right-end-admissible."""
    if not words_mod.is_admissible_end(pres, v, need):
        raise NotRightEndAdmissible("walk filtration needs a right-end-admissible word")
    return ("finite", v, need)


def _walk_end(pres, walk):
    """(letters, end): where the filtration memo keeps a one-sided walk."""
    if walk.shape == "finite":
        return walk.letters, _finite_end(pres, *words_mod.right_end(pres, walk))
    if walk.shape == "right":
        return walk.letters, ("right", walk.period)
    raise NotRightEndAdmissible("two-sided walks have no one-sided filtration")


def walk_plus_minus(rep, walk):
    """(D^+(M), D^-(M)) for a walk whose word lies in some H(l, eps)."""
    return _suffix_plus_minus(rep, *_walk_end(rep.pres, walk))


class FunctorReport(NamedTuple):
    word: object
    kind: str
    index: int
    rank: int  # |J_w|
    t_dim: int
    b_dim: int
    f_dim: int


def f_dim(rep, desc_or_shape, index=None):
    """dim_K of the top/bottom subquotient of a string or band descriptor.

    ``desc_or_shape`` is a descriptor or its walk shape: a ``WalkShape``, or
    an ``RwSpec``, which starts with the same kind, word, walk and J_w, the
    only fields read here.
    """
    pres = rep.pres
    shape = (
        desc_or_shape
        if isinstance(desc_or_shape, (WalkShape, RwSpec))
        else walk_shape(pres, desc_or_shape)
    )
    i = min(shape.Jw) if index is None else index
    after, before = _half_ends(pres, shape, i)
    d_plus, d_minus = _suffix_plus_minus(rep, *after)
    e_plus, e_minus = _suffix_plus_minus(rep, *before)
    top = d_plus.intersect(e_plus)
    bottom = d_plus.intersect(e_minus).sum(d_minus.intersect(e_plus))
    field = rep.field
    for space in (top, bottom):
        if not is_k_stable(field, space):
            raise SpaceMismatch("filtration produced a non-K-stable subspace")
    t, b = k_dim(field, top), k_dim(field, bottom)
    return FunctorReport(shape.word, shape.kind, i, len(shape.Jw), t, b, t - b)


class DecompositionReport(NamedTuple):
    entries: list  # (descriptor, rank, f_dim)
    dim: int
    checksum: int
    complete: bool

    def as_dict(self):
        from .serialize import word_to_compact

        return {
            "summands": [
                {
                    "kind": d.kind,
                    "symmetric": d.symmetric,
                    "f_dim": f,
                    "Jw": r,
                    "word": word_to_compact(d.word),
                }
                for d, r, f in self.entries
            ],
            "dim": self.dim,
            "checksum": self.checksum,
            "complete": self.complete,
        }


def candidate_descriptors(pres, dim):
    """All strings/bands that could contribute to a module of K-dimension dim.

    A contributing descriptor w has |J_w| <= dim, so asymmetric strings have
    length <= dim - 1, symmetric strings length <= 2 dim - 1, asymmetric
    bands period <= dim and symmetric bands period <= 2 dim.  Symmetric
    shapes only exist in the presence of special loops.  A list already made
    for a larger dim is filtered, not enumerated again: both are sorted by
    ``word_key``, so the filter keeps the order.
    """
    hit = pres._descriptors.get(dim)
    if hit is not None:
        return hit
    sym_bound = 2 * dim if pres.special else dim

    def fits(d):
        bound = sym_bound if d.symmetric else dim
        if d.word.shape == "finite":
            return len(d.word.letters) < bound
        return len(d.word.period) <= bound

    larger = [k for k in pres._descriptors if k > dim]
    if larger:
        descs = [d for d in pres._descriptors[min(larger)] if fits(d)]
    else:
        # one enumeration each, at the symmetric bound: both lists are sorted
        # by length first, so the asymmetric words keep their place ahead of
        # the longer symmetric ones
        strings = words_mod.enumerate_strings(pres, sym_bound - 1)
        bands = words_mod.enumerate_bands(pres, sym_bound)
        descs = [d for d in strings + bands if fits(d)]
    pres._descriptors[dim] = descs
    return descs


def multiplicities(rep):
    """Nonzero subquotient dimensions over all candidate strings and bands.

    checksum = sum of |J_w| * f_dim.  The candidates are every string and
    band that the dimension formula dim_K M = sum |J_w| f_dim(M, w) can
    involve, so the checksum reaches dim_K of the module; ``complete``
    records that it does, a self-check that is false only on a defect.

    f_dim(w) is 0 when either half-walk of w at min J_w has D^+ = D^-, so
    only candidates whose two halves keep an open gap (``_open_pair``) get
    ``f_dim``, on their memoised walk shape.  Each candidate is first screened
    on the memo places its word alone fixes (``_screen``); only the ones it
    passes get their shape, their fit to the module and the gap test of
    their two halves.
    """
    pres, dim = rep.pres, rep.dim()
    entries = []
    for desc in candidate_descriptors(pres, dim):
        word = desc.word
        if not _screen(rep, word):
            continue
        shape = _memo(pres._shapes, word, walk_shape, pres, desc)
        if not _vertex_counts_fit(rep, shape):
            continue
        halves = _memo(pres._halves, word, _half_ends, pres, shape, min(shape.Jw))
        if all(_open_pair(rep, letters, end) is not None for letters, end in halves):
            report = f_dim(rep, shape)
            if report.f_dim:
                entries.append((desc, report.rank, report.f_dim))
    checksum = sum(r * f for _, r, f in entries)
    return DecompositionReport(entries, dim, checksum, checksum == dim)


def _memo(cache, key, make, *args):
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = make(*args)
    return hit


def _screen(rep, word):
    """False when the word alone shows that a half of the candidate at
    min J_w = 0 is closed, so that its f_dim is 0; True otherwise.

    Only star letters are oriented by the canonical walk: every other word
    letter is a walk letter as it stands.  A string's halves at 0 are its
    walk letters on the root of its right end, whose suffix after the last
    star letter the word fixes, and the bare root ("finite", v_0,
    -eps); a closed suffix closes every walk that ends in it.  A band with
    no star letter is its own canonical walk, and its halves at 0 are its
    block and its inverted block as periodic tails.  The sweep builds the
    canonical walk only for the words that pass.
    """
    pres = rep.pres
    if word.shape == "finite":
        letters = word.letters
        stars = [j for j, l in enumerate(letters) if l.kind == "s"] if pres.special else ()
        if stars:
            letters = letters[stars[-1] + 1 :]
        right = _finite_end(pres, *words_mod.right_end(pres, word))
        left = _finite_end(pres, word.v0, -word.eps)
        return (
            _open_pair(rep, (), left) is not None
            and _open_pair(rep, letters, right) is not None
        )
    if pres.special and any(l.kind == "s" for l in word.period):
        return True
    block = word.period
    inverted = tuple(l.inverse() for l in reversed(block))
    return all(_open_pair(rep, (), ("right", tail)) is not None for tail in (block, inverted))


def _half_ends(pres, shape, i):
    """The memo places (letters, end) of the two half-walks C_{>i} and
    (C_{<=i})^-1 that f_dim intersects at i: ``_walk_end`` of
    ``words.suffix`` and ``words.prefix_inverse`` of the shape's walk.

    A string's halves end at its right end and at ("finite", v_0, -eps);
    both must be right-end-admissible.  A suffix and an inverted prefix of a
    chain are chains, so a string is validated once, not each half.
    """
    walk = shape.walk
    if walk.shape == "finite":
        words_mod.validate_word(pres, walk)
    return tuple(
        _walk_end(pres, half(pres, walk, i)) for half in (words_mod.suffix, words_mod.prefix_inverse)
    )


def _vertex_counts_fit(rep, shape):
    """A summand of shape w needs #(J_w at l) <= dim_K e_l M at each vertex."""
    counts = {}
    for i in shape.Jw:
        v = words_mod.vertex_at(rep.pres, shape.word, i)
        counts[v] = counts.get(v, 0) + 1
    return all(rep.dims.get(v, 0) >= c for v, c in counts.items())
