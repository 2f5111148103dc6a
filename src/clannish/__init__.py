"""Exact string/band module classification for semilinear clannish algebras
over finite fields."""

from .fields import Aut, Field, FieldElement, make_field
from .linalg import Matrix, Subspace
from .skewquad import SkewQuadratic, classify_quadratic

__all__ = [
    "Aut",
    "Field",
    "FieldElement",
    "Matrix",
    "SkewQuadratic",
    "Subspace",
    "classify_quadratic",
    "make_field",
]
