"""One-sided walk filtrations, the top/bottom subquotient dimension, and the
module decomposition report driven by the dimension formula."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotRightEndAdmissible, SpaceMismatch
from .linalg import Subspace, is_k_stable, k_dim
from .presentation import Letter
from . import relations as rel_mod
from .relations import walk_letter_relation
from . import walks as walks_mod
from .walks import (
    rw_descriptor,
    walk_prefix_inverse,
    walk_star,
    walk_suffix,
    walk_vertex,
)
from . import words as words_mod


def _extension_arrows(pres, v, need):
    """(a, b): arrows extending a walk ending at v with sign need by a^-1
    (for +) or b (for -), if any."""
    plus = minus = None
    for name in pres.ordinary_arrows():
        if pres.arrows[name].source == v and pres.sign(Letter("i", name)) == need:
            plus = name
        if pres.arrows[name].target == v and pres.sign(Letter("d", name)) == need:
            minus = name
    return plus, minus


def _finite_start(rep, v, need):
    """(D^+, D^-) of the trivial walk at v with sign need."""
    p = rep.field.p
    plus_arrow, minus_arrow = _extension_arrows(rep.pres, v, need)
    if plus_arrow is not None:
        target = rep.pres.arrows[plus_arrow].target
        plus = rel_mod.arrow_relation(rep, plus_arrow).preimage(
            Subspace.zero(p, rep.prime_dim(target))
        )
    else:
        plus = Subspace.full(p, rep.prime_dim(v))
    if minus_arrow is not None:
        source = rep.pres.arrows[minus_arrow].source
        minus = rel_mod.arrow_relation(rep, minus_arrow).image(
            Subspace.full(p, rep.prime_dim(source))
        )
    else:
        minus = Subspace.zero(p, rep.prime_dim(v))
    return plus, minus


def _walk_relation(rep, letters):
    """R(l1...lm) = R(l1) after R(l2...lm), memoised per module by suffix."""
    if len(letters) == 1:
        return walk_letter_relation(rep, letters[0])
    cache = rep._filtration_cache
    key = ("R", letters)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = walk_letter_relation(rep, letters[0]).compose(
            _walk_relation(rep, letters[1:])
        )
    return hit


def _suffix_plus_minus(rep, letters, end):
    """D^+ and D^- of l1...ln C' as l1(D(l2...ln C')), memoised per module by suffix.

    ``end`` names what follows the letters: ("finite", v, need) for the
    trivial walk at v, or ("right", period) for the periodic tail.
    """
    cache = rep._filtration_cache
    key = ("D", letters, end)
    hit = cache.get(key)
    if hit is None:
        if letters:
            rel = walk_letter_relation(rep, letters[0])
            plus, minus = _suffix_plus_minus(rep, letters[1:], end)
            hit = (rel.image(plus), rel.image(minus))
        elif end[0] == "finite":
            hit = _finite_start(rep, end[1], end[2])
        else:
            lower, upper = _walk_relation(rep, end[1]).stable_pair()
            hit = (upper, lower)
        cache[key] = hit
    return hit


def walk_plus_minus(rep, walk):
    """(D^+(M), D^-(M)) for a walk whose word lies in some H(l, eps)."""
    pres = rep.pres
    word = walk_star(pres, walk)
    if not words_mod.is_right_end_admissible(pres, word):
        raise NotRightEndAdmissible("walk filtration needs a right-end-admissible word")
    if walk.shape == "finite":
        n = len(walk.letters)
        need = -pres.sign(word.letter_at(n).inverse()) if n else word.eps
        end = ("finite", walk_vertex(pres, walk, n), need)
    elif walk.shape == "right":
        end = ("right", walk.period)
    else:
        raise NotRightEndAdmissible("two-sided walks have no one-sided filtration")
    return _suffix_plus_minus(rep, walk.letters, end)


@dataclass
class FunctorReport:
    word: object
    kind: str
    index: int
    rank: int  # |J_w|
    t_dim: int
    b_dim: int
    f_dim: int


def f_dim(rep, desc_or_spec, index=None):
    """dim_K of the top/bottom subquotient of a string or band descriptor."""
    pres = rep.pres
    spec = (
        desc_or_spec
        if isinstance(desc_or_spec, walks_mod.RwSpec)
        else rw_descriptor(pres, desc_or_spec)
    )
    i = min(spec.Jw) if index is None else index
    after = walk_suffix(pres, spec.walk, i)
    before = walk_prefix_inverse(pres, spec.walk, i)
    d_plus, d_minus = walk_plus_minus(rep, after)
    e_plus, e_minus = walk_plus_minus(rep, before)
    top = d_plus.intersect(e_plus)
    bottom = d_plus.intersect(e_minus).sum(d_minus.intersect(e_plus))
    field = rep.field
    for space in (top, bottom):
        if not is_k_stable(field, space):
            raise SpaceMismatch("filtration produced a non-K-stable subspace")
    t, b = k_dim(field, top), k_dim(field, bottom)
    return FunctorReport(spec.word, spec.kind, i, len(spec.Jw), t, b, t - b)


@dataclass
class DecompositionReport:
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


def candidate_descriptors(pres, dim, max_len=None, max_period=None):
    """All strings/bands that could contribute to a module of K-dimension dim.

    A contributing descriptor w has |J_w| <= dim, so asymmetric strings have
    length <= dim - 1, symmetric strings length <= 2 dim - 1, asymmetric
    bands period <= dim and symmetric bands period <= 2 dim.  Symmetric
    shapes only exist in the presence of special loops.
    """
    key = (dim, max_len, max_period)
    hit = pres._descriptors.get(key)
    if hit is not None:
        return hit
    has_special = bool(pres.special)
    asym_len = dim - 1 if max_len is None else max_len
    sym_len = 2 * dim - 1 if max_len is None else max_len
    band_per = dim if max_period is None else max_period
    sym_per = 2 * dim if max_period is None else max_period
    descs = []
    seen = set()
    for d in words_mod.enumerate_strings(pres, asym_len):
        descs.append(d)
        seen.add(words_mod.word_key(pres, d.word))
    if has_special and sym_len > asym_len:
        for d in words_mod.enumerate_strings(pres, sym_len):
            if d.symmetric and words_mod.word_key(pres, d.word) not in seen:
                descs.append(d)
                seen.add(words_mod.word_key(pres, d.word))
    for d in words_mod.enumerate_bands(pres, band_per):
        descs.append(d)
        seen.add(words_mod.word_key(pres, d.word))
    if has_special and sym_per > band_per:
        for d in words_mod.enumerate_bands(pres, sym_per):
            if d.symmetric and words_mod.word_key(pres, d.word) not in seen:
                descs.append(d)
                seen.add(words_mod.word_key(pres, d.word))
    pres._descriptors[key] = descs
    return descs


def multiplicities(rep, max_len=None, max_period=None, descriptors=None):
    """Nonzero subquotient dimensions over all candidate strings and bands.

    checksum = sum of |J_w| * f_dim; ``complete`` records whether it reaches
    dim_K of the module, which the dimension formula guarantees when the
    search bounds are at their defaults or larger.
    """
    dim = rep.dim()
    if descriptors is None:
        descriptors = candidate_descriptors(rep.pres, dim, max_len, max_period)
    entries = []
    for desc in descriptors:
        spec = _spec_of(rep.pres, desc)
        if len(spec.Jw) > dim:
            continue
        if not _vertex_counts_fit(rep, spec):
            continue
        report = f_dim(rep, spec)
        if report.f_dim:
            entries.append((desc, report.rank, report.f_dim))
    checksum = sum(r * f for _, r, f in entries)
    return DecompositionReport(entries, dim, checksum, checksum == dim)


def _spec_of(pres, desc):
    key = (words_mod.word_key(pres, desc.word), desc.word.shape)
    hit = pres._specs.get(key)
    if hit is None:
        hit = pres._specs[key] = rw_descriptor(pres, desc)
    return hit


def _vertex_counts_fit(rep, spec):
    """A summand of shape w needs #(J_w at l) <= dim_K e_l M at each vertex."""
    counts = {}
    for i in spec.Jw:
        v = words_mod.vertex_at(rep.pres, spec.word, i)
        counts[v] = counts.get(v, 0) + 1
    return all(rep.dims.get(v, 0) >= c for v, c in counts.items())
