"""Concrete semilinear representations: a K-space per vertex and a matrix per
arrow, acting through that arrow's automorphism under the row convention."""

from __future__ import annotations

from types import MappingProxyType

from .errors import DimensionMismatch
from .linalg import Matrix, mat_identity, mat_is_zero, mat_mul, prime_matrix


class Representation:
    """Per-vertex dimensions plus per-arrow matrices over the presentation field.

    The arrow a acts e_{t(a)}M -> e_{h(a)}M by v -> sigma_a(v) @ mats[a]; the
    optional labels record, for module constructions, which (generator index,
    parameter coordinate) each basis vector came from.  ``prime(a)`` is the
    packed F_p matrix of that action, built once per arrow.
    """

    def __init__(self, pres, dims, mats, labels=None):
        self.pres = pres
        dims = {v: int(dims.get(v, 0)) for v in pres.vertices}
        checked = {}
        for name in pres.arrow_names:
            info = pres.arrows[name]
            m = mats.get(name)
            if m is None:
                m = Matrix.zeros(pres.field, dims[info.source], dims[info.target])
            if (m.nrows, m.ncols) != (dims[info.source], dims[info.target]):
                raise DimensionMismatch(f"matrix for {name!r} has the wrong shape")
            checked[name] = m
        # Read-only, so that the per-module caches below cannot go stale.
        self.dims = MappingProxyType(dims)
        self.mats = MappingProxyType(checked)
        self.labels = labels
        self._prime_cache = {}  # arrow -> packed prime matrix
        self._relation_cache = {}  # relations.arrow_relation
        # filtration: relation images by (walk letter, subspace), and the
        # pair (D^+, D^-) and open gap of each half-walk forest node, by id
        self._images = {}
        self._pairs = {}
        self._gaps = {}

    @property
    def field(self):
        return self.pres.field

    def dim(self):
        return sum(self.dims.values())

    def prime_dim(self, vertex=None):
        if vertex is None:
            return self.dim() * self.field.n
        return self.dims[vertex] * self.field.n

    def prime(self, arrow):
        """The packed F_p matrix of v -> sigma_a(v) @ mats[a]."""
        hit = self._prime_cache.get(arrow)
        if hit is None:
            hit = self._prime_cache[arrow] = prime_matrix(
                self.field, self.pres.sigma(arrow), self.mats[arrow]
            )
        return hit

    def path_prime(self, names, vertex=None):
        """The packed F_p matrix of a path: its last arrow acts first."""
        source, _ = self.pres.path_endpoints(names, vertex)
        p = self.field.p
        acc = mat_identity(self.prime_dim(source), p)
        for name in reversed(names):
            acc = mat_mul(acc, self.prime(name), p)
        return acc

    def check_relations(self):
        """All defining relations hold, on the arrows' prime matrices:
        special quadratics and zero relations."""
        for s, q in self.pres.special.items():
            if not q.is_root_prime(self.prime(s), self.dims[self.pres.arrows[s].source]):
                return False
        return all(mat_is_zero(self.path_prime(r)) for r in self.pres.zero_relations)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.pres is other.pres
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={dict(self.dims)})"
