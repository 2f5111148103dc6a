"""Exact matrices over a finite field, semilinear maps, and prime-subfield
subspace arithmetic.

All maps use the row convention: a matrix M sends a row vector v to v @ M,
and a semilinear map (sigma, M) sends v to sigma(v) @ M.  Subspace
computations are done over the prime subfield, where semilinear maps become
honest linear maps; K-dimensions are recovered after a K-stability check.
"""

from __future__ import annotations

from .errors import DimensionMismatch, FieldMismatch
from .fields import Aut


class Matrix:
    """Immutable matrix with entries in one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, nrows=None, ncols=None):
        rows = tuple(tuple(field.el(x) for x in r) for r in rows)
        self.field = field
        self.rows = rows
        self.nrows = len(rows) if nrows is None else nrows
        self.ncols = len(rows[0]) if (ncols is None and rows) else (ncols or 0)
        if any(len(r) != self.ncols for r in rows):
            raise DimensionMismatch("ragged rows")

    def _compat(self, other):
        if self.field != other.field or (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, field, nn):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(nn)] for i in range(nn)], nn, nn)

    def __add__(self, other):
        self._compat(other)
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.nrows,
            self.ncols,
        )

    def __sub__(self, other):
        self._compat(other)
        return Matrix(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.nrows,
            self.ncols,
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows], self.nrows, self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        z = self.field.zero()
        if other.nrows == 0:
            out = [[z] * other.ncols for _ in range(self.nrows)]
            return Matrix(self.field, out, self.nrows, other.ncols)
        cols = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = z
                for a, b in zip(r, c):
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out, self.nrows, other.ncols)

    def scale(self, lam):
        lam = self.field.el(lam)
        return Matrix(self.field, [[lam * a for a in r] for r in self.rows], self.nrows, self.ncols)

    def entrywise(self, fn):
        return Matrix(self.field, [[fn(a) for a in r] for r in self.rows], self.nrows, self.ncols)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        nn = self.nrows
        ident = Matrix.identity(self.field, nn).rows
        pivots, rows = k_rref([r + e for r, e in zip(self.rows, ident)], nn)
        if len(pivots) < nn:
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [r[nn:] for r in rows], nn, nn)

    def is_invertible(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        return len(k_rref(self.rows)[0]) == self.nrows

    def apply_row(self, v):
        """Row vector times this matrix."""
        if len(v) != self.nrows:
            raise DimensionMismatch("vector/matrix size mismatch")
        z = self.field.zero()
        out = [z] * self.ncols
        for x, row in zip(v, self.rows):
            if x:
                out = [acc + x * a for acc, a in zip(out, row)]
        return tuple(out)

    def __repr__(self):
        return "Matrix[" + "; ".join(" ".join(repr(a) for a in r) for r in self.rows) + "]"


def k_rref(rows, width=None):
    """Gauss-Jordan elimination over K: (pivot columns, reduced pivot rows).

    ``rows`` are sequences of field elements.  Pivots are sought in the first
    ``width`` columns only (all columns by default); rows left without a pivot
    there are dropped.  With the default width the result is the canonical
    reduced echelon basis of the row space.
    """
    rows = [list(r) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        top = rows[r] = [inv * x if x else x for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [x - f * y if y else x for x, y in zip(row, top)]
        pivots.append(c)
    return pivots, rows[: len(pivots)]


class SemilinearMap:
    """A sigma-semilinear map acting on row vectors by v -> sigma(v) @ M."""

    __slots__ = ("sigma", "matrix")

    def __init__(self, sigma, matrix):
        if sigma.field != matrix.field:
            raise FieldMismatch("automorphism and matrix over different fields")
        self.sigma = sigma
        self.matrix = matrix

    def apply(self, v):
        v = tuple(self.matrix.field.el(x) for x in v)
        return self.matrix.apply_row(tuple(self.sigma(x) for x in v))

    def after(self, other):
        """self composed after other: first other, then self."""
        return SemilinearMap(self.sigma * other.sigma, self.sigma(other.matrix) @ self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.sigma == other.sigma
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"SemilinearMap({self.sigma!r}, {self.matrix!r})"


# ---------------------------------------------------------------------------
# prime-field vectors and subspaces (plain ints mod p)


def _pack2(row):
    v = 0
    for j, x in enumerate(row):
        if x & 1:
            v |= 1 << j
    return v


def _unpack2(v, width):
    return tuple((v >> j) & 1 for j in range(width))


def _rref2_ints(vals):
    """Reduced echelon basis over GF(2) on bit-packed rows: pivot -> row."""
    basis = {}
    for v in vals:
        for piv, row in basis.items():
            if (v >> piv) & 1:
                v ^= row
        if not v:
            continue
        piv = (v & -v).bit_length() - 1
        for q, row in basis.items():
            if (row >> piv) & 1:
                basis[q] = row ^ v
        basis[piv] = v
    return basis


def rref(rows, p):
    """Canonical reduced row echelon form; returns (pivot columns, rows)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    width = len(rows[0])
    if p == 2:
        basis = _rref2_ints(_pack2(r) for r in rows)
        pivots = sorted(basis)
        return pivots, [_unpack2(basis[piv], width) for piv in pivots]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows = [tuple(x % p for x in row) for row in rows[:r]]
    return pivots, rows


class Subspace:
    """A subspace of F_p^dim in canonical reduced echelon form.

    For p = 2 the rows live as bit-packed integers (bit j = coordinate j)
    and every operation stays packed; tuple rows materialize on demand.
    """

    __slots__ = ("p", "ambient", "pivots", "_ints", "_rows")

    def __init__(self, p, ambient, vectors=()):
        self.p = p
        self.ambient = ambient
        if p == 2:
            basis = _rref2_ints(_pack2(r) for r in vectors)
            self.pivots = tuple(sorted(basis))
            self._ints = tuple(basis[q] for q in self.pivots)
            self._rows = None
        else:
            pivots, rows = rref(vectors, p)
            self.pivots = tuple(pivots)
            self._rows = tuple(rows)
            self._ints = None

    @classmethod
    def from_packed(cls, ambient, ints):
        obj = cls.__new__(cls)
        obj.p = 2
        obj.ambient = ambient
        basis = _rref2_ints(ints)
        obj.pivots = tuple(sorted(basis))
        obj._ints = tuple(basis[q] for q in obj.pivots)
        obj._rows = None
        return obj

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(_unpack2(v, self.ambient) for v in self._ints)
        return self._rows

    def packed(self):
        if self._ints is None:
            self._ints = tuple(_pack2(r) for r in self._rows)
        return self._ints

    @classmethod
    def zero(cls, p, ambient):
        return cls(p, ambient)

    @classmethod
    def full(cls, p, ambient):
        if p == 2:
            return cls.from_packed(ambient, [1 << i for i in range(ambient)])
        return cls(p, ambient, [[1 if i == j else 0 for j in range(ambient)] for i in range(ambient)])

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, v):
        if self.p == 2:
            val = _pack2(v) if not isinstance(v, int) else v
            for piv, row in zip(self.pivots, self.packed()):
                if (val >> piv) & 1:
                    val ^= row
            return val == 0
        v = [x % self.p for x in v]
        for piv, row in zip(self.pivots, self.rows):
            if v[piv]:
                f = v[piv]
                v = [(x - f * y) % self.p for x, y in zip(v, row)]
        return not any(v)

    def __le__(self, other):
        if self.p == 2:
            return all(other.contains(r) for r in self.packed())
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.p != other.p or self.ambient != other.ambient:
            return False
        if self.p == 2:
            return self.packed() == other.packed()
        return self.rows == other.rows

    def __hash__(self):
        if self.p == 2:
            return hash((self.p, self.ambient, self.packed()))
        return hash((self.p, self.ambient, self.rows))

    def sum(self, other):
        self._compat(other)
        if self.p == 2:
            return Subspace.from_packed(self.ambient, self.packed() + other.packed())
        return Subspace(self.p, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other):
        self._compat(other)
        # Zassenhaus: rref of [[U|U],[W|0]]; rows with zero left half carry the
        # intersection in their right half.
        d = self.ambient
        if self.p == 2:
            mask = (1 << d) - 1
            stacked = [v | (v << d) for v in self.packed()]
            stacked += list(other.packed())
            basis = _rref2_ints(stacked)
            inter = [v >> d for v in basis.values() if not v & mask]
            return Subspace.from_packed(d, inter)
        stacked = [list(r) + list(r) for r in self.rows]
        stacked += [list(r) + [0] * d for r in other.rows]
        _, rows = rref(stacked, self.p)
        inter = [r[d:] for r in rows if not any(r[:d])]
        return Subspace(self.p, d, inter)

    def _compat(self, other):
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient})"


def mat_vec(rows, v, p):
    """Row vector v times an F_p matrix given as a list of rows."""
    out = [0] * (len(rows[0]) if rows else 0)
    for x, row in zip(v, rows):
        if x:
            out = [(acc + x * y) % p for acc, y in zip(out, row)]
    return out


def left_nullspace(rows, p, width=None):
    """Basis of {c : c @ rows == 0} for an F_p matrix given as a list of rows."""
    m = len(rows)
    if width is None:
        width = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    _, red = rref(aug, p)
    return [r[width:] for r in red if not any(r[:width])]


# ---------------------------------------------------------------------------
# bridge between K-objects and prime-field coordinates


def mult_matrix(field, lam):
    """F_p matrix of y -> y*lam on coefficient row vectors."""
    lam = field.el(lam)
    cache = field._mult_matrices
    hit = cache.get(lam.coeffs)
    if hit is None:
        rows = []
        for j in range(field.n):
            basis = field.el([0] * j + [1])
            rows.append(list((basis * lam).coeffs))
        hit = cache[lam.coeffs] = rows
    return hit


def frob_matrix(field, k):
    """F_p matrix of the k-th Frobenius power on coefficient row vectors."""
    k %= field.n
    cache = field._frob_matrices
    hit = cache.get(k)
    if hit is None:
        rows = []
        for j in range(field.n):
            basis = field.el([0] * j + [1])
            rows.append(list(Aut(field, k)(basis).coeffs))
        hit = cache[k] = rows
    return hit


def expand_vector(field, kvec):
    out = []
    for x in kvec:
        out.extend(field.el(x).coeffs)
    return out


def contract_vector(field, pvec):
    n = field.n
    return tuple(field.el(pvec[i : i + n]) for i in range(0, len(pvec), n))


def prime_matrix(field, sigma, kmatrix):
    """F_p matrix (row convention) of the semilinear map v -> sigma(v) @ kmatrix."""
    n = field.n
    fm = frob_matrix(field, sigma.k)
    d, e = kmatrix.nrows, kmatrix.ncols
    out = [[0] * (e * n) for _ in range(d * n)]
    for i in range(d):
        for j in range(e):
            entry = kmatrix.rows[i][j]
            if not entry:
                continue
            rm = mult_matrix(field, entry)
            # block (i, j) = frobenius then multiply-by-entry
            block = [mat_vec(rm, frow, field.p) for frow in fm]
            for a in range(n):
                row = out[i * n + a]
                brow = block[a]
                for b in range(n):
                    row[j * n + b] = (row[j * n + b] + brow[b]) % field.p
    return out


def scalar_block_matrix(field, lam, blocks):
    """Block-diagonal F_p matrix acting as multiplication by lam on K^blocks."""
    n = field.n
    rm = mult_matrix(field, lam)
    out = [[0] * (blocks * n) for _ in range(blocks * n)]
    for b in range(blocks):
        for a in range(n):
            for c in range(n):
                out[b * n + a][b * n + c] = rm[a][c]
    return out


def is_k_stable(field, space, gen_matrix=None):
    """Whether a prime-field subspace is stable under the K-action."""
    if space.dim == 0:
        return True
    blocks = space.ambient // field.n
    if gen_matrix is None:
        gen_matrix = scalar_block_matrix(field, field.multiplicative_generator(), blocks)
    return all(space.contains(mat_vec(gen_matrix, list(r), field.p)) for r in space.rows)


def k_dim(field, space):
    """K-dimension of a K-stable prime-field subspace."""
    if space.dim % field.n:
        raise DimensionMismatch("subspace is not K-stable (dimension not divisible by n)")
    return space.dim // field.n
