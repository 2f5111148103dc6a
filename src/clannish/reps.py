"""Concrete semilinear representations: a K-space per vertex and a matrix per
arrow, acting through that arrow's automorphism under the row convention."""

from __future__ import annotations

from types import MappingProxyType

from .errors import DimensionMismatch
from .fields import Aut
from .linalg import Matrix, SemilinearMap


class Representation:
    """Per-vertex dimensions plus per-arrow matrices over the presentation field.

    The arrow a acts e_{t(a)}M -> e_{h(a)}M by v -> sigma_a(v) @ mats[a]; the
    optional labels record, for module constructions, which (generator index,
    parameter coordinate) each basis vector came from.
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
        self._relation_cache = {}  # relations.arrow_relation
        self._filtration_cache = {}  # filtration: D^+, D^- and period composites by walk suffix

    @property
    def field(self):
        return self.pres.field

    def dim(self):
        return sum(self.dims.values())

    def prime_dim(self, vertex=None):
        if vertex is None:
            return self.dim() * self.field.n
        return self.dims[vertex] * self.field.n

    def semilinear(self, arrow):
        return SemilinearMap(self.pres.sigma(arrow), self.mats[arrow])

    def path_action(self, names, vertex=None):
        """(sigma_p, matrix) of a path acting by v -> sigma_p(v) @ matrix."""
        source, target = self.pres.path_endpoints(names, vertex)
        acc = SemilinearMap(
            Aut(self.field, 0), Matrix.identity(self.field, self.dims[source])
        )
        for name in reversed(names):
            acc = self.semilinear(name).after(acc)
        return acc

    def check_relations(self):
        """All defining relations hold: special quadratics and zero relations."""
        for s, q in self.pres.special.items():
            if not q.is_root_matrix(self.mats[s]):
                return False
        for r in self.pres.zero_relations:
            if not self.path_action(r).matrix.is_zero():
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.pres is other.pres
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={dict(self.dims)})"
