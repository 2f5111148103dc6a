"""Semilinear relations: twisted subspaces of V (+) W over the prime subfield.

A sigma-semilinear relation is a subspace closed under (v, w) ->
(lam v, sigma(lam) w).  Working in prime-field coordinates every operation
is plain exact linear algebra; the automorphism is carried as a tag so that
composites and inverses keep track of their twist.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotStabilized, SpaceMismatch
from .fields import Aut
from .linalg import (
    Subspace,
    combine,
    eliminate_block,
    mat_mul,
    prime_matrix,
    scalar_block_matrix,
    slot_bits,
)


class SemilinearRelation(NamedTuple):
    """A relation from a src-dimensional to a tgt-dimensional K-space.

    ``space`` lives in prime-field coordinates of src (+) tgt; ``sigma`` is
    the twist tag.  src/tgt are K-dimensions.
    """

    field: object
    sigma: Aut
    src: int
    tgt: int
    space: Subspace

    @property
    def p(self):
        return self.field.p

    def _pdims(self):
        n = self.field.n
        return self.src * n, self.tgt * n

    @classmethod
    def graph(cls, field, sigma, kmatrix):
        """The graph of the semilinear map v -> sigma(v) @ kmatrix."""
        pm = prime_matrix(field, sigma, kmatrix)
        return cls.from_prime(field, sigma, kmatrix.nrows, kmatrix.ncols, pm)

    @classmethod
    def from_prime(cls, field, sigma, src, tgt, pm):
        """The graph of a sigma-semilinear map K^src -> K^tgt given by its
        packed prime matrix.  Its rows (e_i, row i of the map) are already
        the canonical reduced basis."""
        sp, tp = src * field.n, tgt * field.n
        bits = slot_bits(field.p)
        rows = [(1 << (bits * i)) | (r << (bits * sp)) for i, r in enumerate(pm)]
        space = Subspace._reduced(field.p, sp + tp, range(sp), rows)
        return cls(field, sigma, src, tgt, space)

    @classmethod
    def identity(cls, field, d):
        dn = d * field.n
        bits = slot_bits(field.p)
        rows = [(1 << (bits * i)) | (1 << (bits * (dn + i))) for i in range(dn)]
        space = Subspace._reduced(field.p, 2 * dn, range(dn), rows)
        return cls(field, Aut(field, 0), d, d, space)

    @classmethod
    def zero(cls, field, src, tgt):
        return cls(field, Aut(field, 0), src, tgt, Subspace(field.p, (src + tgt) * field.n))

    def inverse(self):
        sp, tp = self._pdims()
        bits = slot_bits(self.p)
        smask = (1 << (bits * sp)) - 1
        ints = [(v >> (bits * sp)) | ((v & smask) << (bits * tp)) for v in self.space.packed()]
        space = Subspace.from_packed(self.p, sp + tp, ints)
        return SemilinearRelation(
            self.field, self.sigma.inverse(), self.tgt, self.src, space
        )

    def compose(self, other):
        """self after other (other: U -> V, self: V -> W)."""
        if other.tgt != self.src or other.field != self.field:
            raise SpaceMismatch("relations do not compose")
        n = self.field.n
        up, vp, wp = other.src * n, self.src * n, self.tgt * n
        # columns ordered (V, U, W): the eliminated block must come first so
        # that rref rows with zero V-part span all such row combinations.
        # (u, v) -> (v, u, 0) and (v, w) -> (-v, 0, w), with -v = (p - 1) v
        # slot by slot (no slot passes (p - 1)**2, so nothing carries).
        p, bits = self.p, slot_bits(self.p)
        umask, vmask = (1 << (bits * up)) - 1, (1 << (bits * vp)) - 1
        combined = [
            ((r >> (bits * up)) & vmask) | ((r & umask) << (bits * vp))
            for r in other.space.packed()
        ]
        combined += [
            (p - 1) * (r & vmask) | ((r >> (bits * vp)) << (bits * (vp + up)))
            for r in self.space.packed()
        ]
        space = eliminate_block(p, combined, vp, up + wp)
        return SemilinearRelation(
            self.field, self.sigma * other.sigma, other.src, self.tgt, space
        )

    def image(self, sub):
        """{w : (u, w) in self for some u in sub}."""
        sp, tp = self._pdims()
        if sub.p != self.p or sub.ambient != sp:
            raise SpaceMismatch("subspace lives in the wrong source space")
        # the reduced basis of the relation seeds the elimination of sub's rows
        seed = zip(self.space.pivots, self.space.packed())
        return eliminate_block(self.p, sub.packed(), sp, tp, seed)

    def preimage(self, sub):
        return self.inverse().image(sub)

    def full_source(self):
        return Subspace.full(self.p, self._pdims()[0])

    def zero_source(self):
        return Subspace.zero(self.p, self._pdims()[0])

    def stable_pair(self):
        """(C', C''): stable kernel and stable image of an endo-relation."""
        return _stable_pair(self)

    def is_q_bound(self, q):
        """(v, w) in X implies (w, beta w - gamma v) in X, on a spanning set."""
        sp, tp = self._pdims()
        if sp != tp:
            raise SpaceMismatch("q-bound test needs an endo-relation")
        d, p = self.src, self.p
        shift = slot_bits(p) * sp
        vs = [r & ((1 << shift) - 1) for r in self.space.packed()]
        ws = [r >> shift for r in self.space.packed()]
        bws = mat_mul(ws, scalar_block_matrix(self.field, q.beta, d), p)
        gvs = mat_mul(vs, scalar_block_matrix(self.field, q.gamma, d), p)
        return self.space._spans(
            [w | (combine((1, p - 1), (bw, gv), p) << shift) for w, bw, gv in zip(ws, bws, gvs)]
        )


def _stable_pair(rel):
    """``rel.stable_pair()``; the law checks call this, so that a wrapper
    around the method that runs them does not recurse."""
    if rel.src != rel.tgt:
        raise SpaceMismatch("stable pair needs an endo-relation")
    return _iterate(rel.image, rel.zero_source()), _iterate(rel.image, rel.full_source())


def _iterate(step, start):
    """The first of start, step(start), step(step(start)), ... that ``step``
    fixes.  A relation's image is monotone, so from 0 or full the chain
    stabilizes within the ambient dimension; otherwise NotStabilized."""
    seen = start
    for _ in range(seen.ambient + 2):
        nxt = step(seen)
        if nxt == seen:
            return seen
        seen = nxt
    # by dimension count the chain must have stabilized
    raise NotStabilized("relation iteration failed to stabilize")


def arrow_relation(rep, name, inverse=False):
    """The action of an arrow (or its inverse) on a representation, cached."""
    cache = rep._relation_cache
    key = (name, inverse)
    hit = cache.get(key)
    if hit is None:
        info = rep.pres.arrows[name]
        sigma, src, tgt = rep.pres.sigma(name), rep.dims[info.source], rep.dims[info.target]
        rel = SemilinearRelation.from_prime(rep.field, sigma, src, tgt, rep.prime(name))
        cache[(name, False)] = rel
        cache[(name, True)] = rel.inverse()
        hit = cache[key]
    return hit


def walk_letter_relation(rep, wl):
    """The relation of a walk letter: its arrow for kind 'd', the inverse
    relation for kind 'i'."""
    return arrow_relation(rep, wl.name, inverse=wl.kind == "i")


# -- law checks (used by the acceptance suite) ---------------------------------


def check_stable_image_laws(rel, lower=None, upper=None):
    """The stable-pair identities: C'' = C' + C'' /\\ (C^-1)'' and
    C'' /\\ (C^-1)' <= C', together with their mirror images."""
    if lower is None or upper is None:
        lower, upper = _stable_pair(rel)
    ilower, iupper = _stable_pair(rel.inverse())
    meet = upper.intersect(iupper)
    if upper != lower.sum(meet):
        raise AssertionError("stable-image law (i) fails")
    if iupper != ilower.sum(meet):
        raise AssertionError("mirrored stable-image law (i) fails")
    if not upper.intersect(ilower) <= lower:
        raise AssertionError("stable-image law (ii) fails")
    if not lower.intersect(iupper) <= ilower:
        raise AssertionError("mirrored stable-image law (ii) fails")
    return True
