"""Semilinear relations: twisted subspaces of V (+) W over the prime subfield.

A sigma-semilinear relation is a subspace closed under (v, w) ->
(lam v, sigma(lam) w).  Working in prime-field coordinates every operation
is plain exact linear algebra; the automorphism is carried as a tag so that
composites and inverses keep track of their twist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpaceMismatch
from .fields import Aut
from .linalg import (
    Subspace,
    eliminate_block,
    is_k_stable,
    k_dim,
    mat_vec,
    prime_matrix,
    scalar_block_matrix,
)

CHECK_LAWS = False


@dataclass(frozen=True)
class SemilinearRelation:
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
        sp, tp = kmatrix.nrows * field.n, kmatrix.ncols * field.n
        rows = []
        for i in range(sp):
            e = [0] * sp
            e[i] = 1
            rows.append(e + list(pm[i]))
        return cls(field, sigma, kmatrix.nrows, kmatrix.ncols, Subspace(field.p, sp + tp, rows))

    @classmethod
    def identity(cls, field, d):
        n = field.n
        rows = []
        for i in range(d * n):
            e = [0] * (d * n)
            e[i] = 1
            rows.append(e + e)
        return cls(field, Aut(field, 0), d, d, Subspace(field.p, 2 * d * n, rows))

    @classmethod
    def zero(cls, field, src, tgt):
        return cls(field, Aut(field, 0), src, tgt, Subspace(field.p, (src + tgt) * field.n))

    def inverse(self):
        sp, tp = self._pdims()
        if self.p == 2:
            smask = (1 << sp) - 1
            ints = [(v >> sp) | ((v & smask) << tp) for v in self.space.packed()]
            space = Subspace.from_packed(sp + tp, ints)
        else:
            rows = [list(r[sp:]) + list(r[:sp]) for r in self.space.rows]
            space = Subspace(self.p, sp + tp, rows)
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
        if self.p == 2:
            umask, vmask = (1 << up) - 1, (1 << vp) - 1
            combined = [((r >> up) & vmask) | ((r & umask) << vp) for r in other.space.packed()]
            combined += [(r & vmask) | ((r >> vp) << (vp + up)) for r in self.space.packed()]
        else:
            combined = []
            for r in other.space.rows:  # (u, v) -> (v, u, 0)
                combined.append(list(r[up:]) + list(r[:up]) + [0] * wp)
            for r in self.space.rows:  # (v, w) -> (-v, 0, w)
                combined.append([(-x) % self.p for x in r[:vp]] + [0] * up + list(r[vp:]))
        space = eliminate_block(self.p, combined, vp, up + wp)
        return SemilinearRelation(
            self.field, self.sigma * other.sigma, other.src, self.tgt, space
        )

    def image(self, sub):
        """{w : (u, w) in self for some u in sub}."""
        sp, tp = self._pdims()
        if sub.ambient != sp:
            raise SpaceMismatch("subspace lives in the wrong source space")
        if self.p == 2:
            rows = list(sub.packed()) + list(self.space.packed())
        else:
            rows = [list(r) + [0] * tp for r in sub.rows]
            rows += [list(r) for r in self.space.rows]
        return eliminate_block(self.p, rows, sp, tp)

    def preimage(self, sub):
        return self.inverse().image(sub)

    def full_source(self):
        return Subspace.full(self.p, self._pdims()[0])

    def zero_source(self):
        return Subspace.zero(self.p, self._pdims()[0])

    def stable_pair(self, check=None):
        """(C', C''): stable kernel and stable image of an endo-relation."""
        if self.src != self.tgt:
            raise SpaceMismatch("stable pair needs an endo-relation")
        upper = _iterate(self, self.full_source())
        lower = _iterate(self, self.zero_source())
        if check or (check is None and CHECK_LAWS):
            check_stable_image_laws(self, lower, upper)
        return lower, upper

    def is_q_bound(self, q):
        """(v, w) in X implies (w, beta w - gamma v) in X, on a spanning set."""
        sp, tp = self._pdims()
        if sp != tp:
            raise SpaceMismatch("q-bound test needs an endo-relation")
        d = self.src
        bm = scalar_block_matrix(self.field, q.beta, d)
        gm = scalar_block_matrix(self.field, q.gamma, d)
        for r in self.space.rows:
            v, w = list(r[:sp]), list(r[sp:])
            bw = mat_vec(bm, w, self.p)
            gv = mat_vec(gm, v, self.p)
            cand = w + [(x - y) % self.p for x, y in zip(bw, gv)]
            if not self.space.contains(cand):
                return False
        return True


def _iterate(rel, start):
    seen = start
    for _ in range(seen.ambient + 2):
        nxt = rel.image(seen)
        if nxt == seen:
            return seen
        seen = nxt
    # by dimension count the chain must have stabilized
    raise AssertionError("relation iteration failed to stabilize")


def arrow_relation(rep, name, inverse=False):
    """The action of an arrow (or its inverse) on a representation, cached."""
    cache = rep._relation_cache
    key = (name, inverse)
    hit = cache.get(key)
    if hit is None:
        rel = SemilinearRelation.graph(rep.field, rep.pres.sigma(name), rep.mats[name])
        cache[(name, False)] = rel
        cache[(name, True)] = rel.inverse()
        hit = cache[key]
    return hit


def walk_letter_relation(rep, wl):
    return arrow_relation(rep, wl.name, inverse=not wl.direct)


# -- law checks (used by the acceptance suite) ---------------------------------


def check_stable_image_laws(rel, lower=None, upper=None):
    """The stable-pair identities: C'' = C' + C'' /\\ (C^-1)'' and
    C'' /\\ (C^-1)' <= C', together with their mirror images."""
    if lower is None or upper is None:
        lower, upper = rel.stable_pair(check=False)
    inv = rel.inverse()
    ilower, iupper = inv.stable_pair(check=False)
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


def check_one_relation_laws(x_rel, q, small, big):
    """For a q-bound relation with q normal and non-singular and U <= W:
    U /\\ XW == U /\\ X^-1 W and the two-term sum identity."""
    xi = x_rel.inverse()
    xw, xiw = x_rel.image(big), xi.image(big)
    xu, xiu = x_rel.image(small), xi.image(small)
    if small.intersect(xw) != small.intersect(xiw):
        raise AssertionError("one-relation law (i) fails")
    lhs = big.intersect(xu).sum(small.intersect(xw))
    rhs = big.intersect(xiu).sum(small.intersect(xiw))
    if lhs != rhs:
        raise AssertionError("one-relation law (ii) fails")
    return True


def check_symmetric_band_rewriting(x_rel, y_rel):
    """The four double-prime intersections of the pair rewriting identity agree,
    and the primed variants collapse likewise on finite-dimensional spaces."""
    combos = {}
    for name, rel in {
        "yx": y_rel.compose(x_rel),
        "xy": x_rel.compose(y_rel),
        "ixy": y_rel.inverse().compose(x_rel.inverse()),
        "iyx": x_rel.inverse().compose(y_rel.inverse()),
    }.items():
        lower, upper = rel.stable_pair(check=False)
        combos[name] = (lower, upper)
    tops = [
        combos["ixy"][1].intersect(combos["iyx"][1]),
        combos["ixy"][1].intersect(combos["xy"][1]),
        combos["yx"][1].intersect(combos["iyx"][1]),
        combos["yx"][1].intersect(combos["xy"][1]),
    ]
    if any(t != tops[0] for t in tops[1:]):
        raise AssertionError("double-prime rewriting identity fails")
    bottoms = [
        combos["ixy"][0].intersect(combos["iyx"][1]),
        combos["ixy"][0].intersect(combos["xy"][1]),
        combos["yx"][0].intersect(combos["iyx"][1]),
        combos["yx"][0].intersect(combos["xy"][1]),
        combos["ixy"][0].intersect(combos["iyx"][0]),
        combos["yx"][0].intersect(combos["xy"][0]),
    ]
    if any(b != bottoms[0] for b in bottoms[1:]):
        raise AssertionError("primed rewriting identity fails")
    return True


def k_dimension(field, space):
    if not is_k_stable(field, space):
        raise SpaceMismatch("subspace is not K-stable")
    return k_dim(field, space)
