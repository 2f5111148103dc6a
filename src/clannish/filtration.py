"""One-sided walk filtrations, the top/bottom subquotient dimension, and the
module decomposition report driven by the dimension formula."""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotRightEndAdmissible, PreconditionViolated, SpaceMismatch
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

    Many half-walks reach the same subspace, so their own pairs alone would
    take the same image again.  The key holds the walk letter's kind as well
    as its name, since R(s) and R(s^-1) differ, and the canonical
    ``Subspace``, which compares on its reduced basis.
    """
    cache = rep._images
    key = (letter, sub)
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

    The iteration U -> l1(l2(...ln(U))) starts from the bound (R(full), R(0)),
    the period's half-walk on its ("span", v) root, and takes every image
    through the (letter, subspace) memo ``_image``.  (R o S)(U) = R(S(U)), so
    it passes through the same spaces as the iteration of R.
    """

    def step(space):
        for letter in reversed(period):
            space = _image(rep, letter, space)
        return space

    upper, lower = _pair(rep, period, ("span", rep.pres.tail(period[-1])))
    return _iterate(step, upper), _iterate(step, lower)


# -- the module's half-walks ----------------------------------------------------


class _Half:
    """One module's half-walk l1 l2...ln C': its pair (D^+, D^-), whether its
    gap dim D^+ - dim D^- is open, and its children, l0 l1...ln C' by l0.

    A child's pair is its letter's images of its parent's pair, so it is made
    only below an open parent: gap(R(U), R(W)) <= gap(U, W) for W <= U, and a
    closed half-walk closes every walk that ends in it.
    """

    __slots__ = ("plus", "minus", "open", "children")

    def __init__(self, plus, minus):
        self.plus, self.minus = plus, minus
        self.open = plus.dim > minus.dim
        self.children = {}


def _descend(rep, letters, end):
    """(half, rest): the module's half-walk at the place (letters, end), read
    from the root ``end`` down, and the letters still above it, none unless
    it stopped at a closed half-walk.

    ``end`` names the root the walk ends in: ("finite", v, need) for the
    trivial walk at v, ("right", period) for a periodic tail, or ("span", v)
    for the pair (full, 0) at v, from which the letters of a period
    R = R(l1...ln) carry the bound (R(full), R(0)).  A periodic tail first
    walks its bound: R(0) <= D^- <= D^+ <= R(full), so a closed bound is the
    tail's own pair, and the tail's letters go on from where the bound
    stopped.  Every root checks D^- <= D^+, which the gap needs.
    """
    roots = rep._roots
    half = roots.get(end)
    if half is None:
        kind = end[0]
        if kind == "right":
            period = end[1]
            bound, rest = _descend(rep, period, ("span", rep.pres.tail(period[-1])))
            if not bound.open:
                return bound, letters + rest
            plus, minus = _tail_pair(rep, period)
        elif kind == "finite":
            plus, minus = _finite_start(rep, end[1], end[2])
        else:
            p, d = rep.field.p, rep.prime_dim(end[1])
            plus, minus = Subspace.full(p, d), Subspace.zero(p, d)
        if not minus <= plus:
            raise SpaceMismatch("a walk filtration starts with D^- outside D^+")
        half = roots[end] = _Half(plus, minus)
    j = len(letters)
    while j and half.open:
        j -= 1
        letter = letters[j]
        child = half.children.get(letter)
        if child is None:
            child = half.children[letter] = _Half(
                _image(rep, letter, half.plus), _image(rep, letter, half.minus)
            )
        half = child
    return half, letters[:j]


def _open_places(rep, places):
    """Whether every half-walk of ``places`` is open in rep, read in order
    up to the first closed one."""
    for letters, end in places:
        if not _descend(rep, letters, end)[0].open:
            return False
    return True


def _pair(rep, letters, end):
    """(D^+, D^-) of the half-walk at the place (letters, end) in rep.  Below
    a closed half-walk D^+ = D^-, so one chain of images gives both."""
    half, rest = _descend(rep, letters, end)
    if not rest:
        return half.plus, half.minus
    space = half.plus
    for letter in reversed(rest):
        space = _image(rep, letter, space)
    return space, space


def _finite_end(pres, v, need):
    """The root ("finite", v, need) of a walk that ends at v with need, once
    that end is known to be right-end-admissible."""
    if not words_mod.is_admissible_end(pres, v, need):
        raise NotRightEndAdmissible("walk filtration needs a right-end-admissible word")
    return ("finite", v, need)


def _walk_end(pres, walk):
    """(letters, end): the place of a one-sided walk."""
    if walk.shape == "finite":
        return walk.letters, _finite_end(pres, *words_mod.right_end(pres, walk))
    if walk.shape == "right":
        return walk.letters, ("right", walk.period)
    raise NotRightEndAdmissible("two-sided walks have no one-sided filtration")


def walk_plus_minus(rep, walk):
    """(D^+(M), D^-(M)) for a walk whose word lies in some H(l, eps)."""
    return _pair(rep, *_walk_end(rep.pres, walk))


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
    only fields read here.  ``index`` must lie in J_w (default min J_w).
    """
    pres = rep.pres
    shape = (
        desc_or_shape
        if isinstance(desc_or_shape, (WalkShape, RwSpec))
        else walk_shape(pres, desc_or_shape)
    )
    if index is None:
        i = min(shape.Jw)
    elif index in shape.Jw:
        i = index
    else:
        raise PreconditionViolated(f"index {index} is outside J_w of {shape.word!r}")
    after, before = _half_ends(pres, shape, i)
    d_plus, d_minus = _pair(rep, *after)
    e_plus, e_minus = _pair(rep, *before)
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


def _within(pres, dim):
    """Whether a descriptor lies within the bounds that dim sets: asymmetric
    strings of length <= dim - 1, symmetric ones <= 2 dim - 1, asymmetric
    bands of period <= dim and symmetric ones <= 2 dim."""
    sym_bound = 2 * dim if pres.special else dim

    def fits(d):
        bound = sym_bound if d.symmetric else dim
        if d.word.shape == "finite":
            return len(d.word.letters) < bound
        return len(d.word.period) <= bound

    return fits


def candidate_descriptors(pres, dim):
    """All strings/bands that could contribute to a module of K-dimension dim.

    A contributing descriptor w has |J_w| <= dim, which bounds its word
    (``_within``).  Symmetric shapes only exist in the presence of special
    loops.  A list already made for a larger dim is filtered, not enumerated
    again: both are sorted by ``word_key``, so the filter keeps the order.
    """
    hit = pres._descriptors.get(dim)
    if hit is not None:
        return hit
    fits = _within(pres, dim)
    larger = [k for k in pres._descriptors if k > dim]
    if larger:
        descs = [d for d in pres._descriptors[min(larger)] if fits(d)]
    else:
        # one enumeration each, at the symmetric bound: both lists are sorted
        # by length first, so the asymmetric words keep their place ahead of
        # the longer symmetric ones
        sym_bound = 2 * dim if pres.special else dim
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
    only candidates whose two halves keep an open gap (``_open_places``) get
    ``f_dim``, on their memoised walk shape.  The presentation's plan for
    dim (``_plan``) lists each candidate with the half-walk places its word
    alone fixes; a candidate is screened on those first, and only the ones
    that pass get their shape, their fit to the module and the gap test of
    their two halves.  The module makes its half-walks as the sweep reads
    them, and none below a closed one.
    """
    pres, dims, dim = rep.pres, rep.dims, rep.dim()
    entries = []
    for entry in _plan(pres, dim):
        desc, screen, data = entry
        if not _open_places(rep, screen):
            continue
        if data is None:
            data = entry[2] = _word_data(pres, desc)
        shape, counts, halves = data
        if any(dims[v] < c for v, c in counts):
            continue
        if _open_places(rep, halves):
            report = f_dim(rep, shape)
            if report.f_dim:
                entries.append((desc, report.rank, report.f_dim))
    checksum = sum(r * f for _, r, f in entries)
    return DecompositionReport(entries, dim, checksum, checksum == dim)


def _plan(pres, dim):
    """The sweep's plan for dim: one entry [descriptor, screen places, word
    data] per candidate, in ``candidate_descriptors`` order, built on the
    first call at dim.  A plan already made for a larger dim is
    filtered, as the candidate list is; the filtered entries are the same
    lists, so they share their word data."""
    descs = candidate_descriptors(pres, dim)
    plans = pres._plans
    plan = plans.get(dim)
    if plan is None:
        larger = [k for k in plans if k > dim]
        if larger:
            fits = _within(pres, dim)
            plan = [entry for entry in plans[min(larger)] if fits(entry[0])]
        else:
            plan = [[d, _screen(pres, d.word), None] for d in descs]
        plans[dim] = plan
    return plan


def _screen(pres, word):
    """The half-walk places (letters, end) that the word alone fixes on the
    halves of the candidate at min J_w = 0; if one of them is closed, so is
    that half, and its f_dim is 0.

    Only star letters are oriented by the canonical walk: every other word
    letter is a walk letter as it stands.  A string's halves at 0 are its
    walk letters on the root of its right end, whose suffix after the last
    star letter the word fixes, and the bare root ("finite", v_0, -eps); a
    closed suffix closes every walk that ends in it.  A band with no star
    letter is its own canonical walk, and its halves at 0 are its block and
    its inverted block as periodic tails.  A band with a star letter has no
    screen.
    """
    if word.shape == "finite":
        letters = word.letters
        stars = [j for j, l in enumerate(letters) if l.kind == "s"] if pres.special else ()
        if stars:
            letters = letters[stars[-1] + 1 :]
        right = _finite_end(pres, *words_mod.right_end(pres, word))
        left = _finite_end(pres, word.v0, -word.eps)
        return ((), left), (letters, right)
    if pres.special and any(l.kind == "s" for l in word.period):
        return ()
    block = word.period
    inverted = tuple(l.inverse() for l in reversed(block))
    return ((), ("right", block)), ((), ("right", inverted))


def _word_data(pres, desc):
    """(shape, J_w vertex counts, half-walk places at min J_w) of a candidate."""
    shape = walk_shape(pres, desc)
    counts = {}
    for i in shape.Jw:
        v = words_mod.vertex_at(pres, shape.word, i)
        counts[v] = counts.get(v, 0) + 1
    return shape, tuple(counts.items()), _half_ends(pres, shape, min(shape.Jw))


def _half_ends(pres, shape, i):
    """The places (letters, end) of the two half-walks C_{>i} and
    (C_{<=i})^-1 that f_dim intersects at i: ``_walk_end`` of
    ``words.suffix`` and ``words.prefix_inverse`` of the shape's walk,
    memoised per presentation by (walk, i).

    A string's halves end at its right end and at ("finite", v_0, -eps);
    both must be right-end-admissible.  A suffix and an inverted prefix of a
    chain are chains, so a string is validated once, not each half.
    """
    walk = shape.walk
    key = (walk, i)
    hit = pres._halves.get(key)
    if hit is None:
        if walk.shape == "finite":
            words_mod.validate_word(pres, walk)
        hit = pres._halves[key] = tuple(
            _walk_end(pres, half(pres, walk, i))
            for half in (words_mod.suffix, words_mod.prefix_inverse)
        )
    return hit
