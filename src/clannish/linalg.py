"""Exact matrices over a finite field and prime-subfield linear algebra.

All maps use the row convention: a matrix M sends a row vector v to v @ M,
and a semilinear map (sigma, M) sends v to sigma(v) @ M.  All elimination is
done over the prime subfield, where semilinear maps become honest linear
maps; K-dimensions are recovered after a K-stability check.  ``Matrix``, with
entries in K, is the record that modules and parameters are read and written
in; its inverse is computed on the prime matrix too.

Prime-field rows have one packed layout for every p: a row of F_p^d is one
int with coordinate j in slot j, ``slot_bits(p)`` bits wide (1 bit for p = 2;
for odd p the least multiple of 8 with p*p < 2**bits, so bytes for
p <= 13).  One Gauss-Jordan kernel, ``_rref_ints``, eliminates them: XOR for
p = 2, and for odd p multiply-adds that reduce a row mod p only before a slot
could carry.  It runs two passes.  The forward pass clears each incoming row
at the pivots found so far, lowest pivot first, and adds a nonzero remainder
as a new pivot row without back-substituting it.  One back-substitution pass,
highest pivot first, then reduces only the rows the caller keeps: those with
a pivot at or past ``width`` (the tail of a relation image, composition,
intersection or nullspace), or every row for a full basis (width 0).

Every F_p matrix is a list of such rows, multiplied by ``mat_mul`` under the
same rule: K-multiplication, Frobenius and semilinear maps (``mult_matrix``,
``frob_matrix``, ``prime_matrix``), relation graphs, and the oracle's
endomorphisms and Hom equations.  Entries are read back only where a routine
needs them one by one, and in the tuple API of ``rref`` and
``left_nullspace``.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .errors import DimensionMismatch
from .fields import Aut, FieldElement


class Matrix:
    """Immutable matrix with entries in one field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, nrows=None, ncols=None):
        rows = tuple(tuple(field.el(x) for x in r) for r in rows)
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        if nrows is not None and nrows != len(rows):
            raise DimensionMismatch(f"{len(rows)} rows given for a matrix with {nrows}")
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
        """The inverse, read off the prime matrix of [self | I] in reduced
        echelon form: the inverse of a K-linear map is K-linear."""
        nn = self._square()
        field, p = self.field, self.field.p
        dn = nn * field.n
        shift = slot_bits(p) * dn
        ident = mat_identity(dn, p)
        basis = _rref_ints([r | (e << shift) for r, e in zip(self._prime(), ident)], p)
        if any(q >= dn for q in basis):
            raise ZeroDivisionError("matrix is singular")
        return k_matrix(field, [basis[q] >> shift for q in range(dn)], nn, nn)

    def is_invertible(self):
        nn = self._square()
        return len(_rref_ints(self._prime(), self.field.p)) == nn * self.field.n

    def _square(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        return self.nrows

    def _prime(self):
        return prime_matrix(self.field, Aut(self.field, 0), self)

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


# ---------------------------------------------------------------------------
# prime-field vectors and subspaces, packed one int per row


def slot_bits(p):
    """Bits per coordinate in a packed F_p row: 1 for p = 2, else the least
    multiple of 8 with p*p < 2**bits (8 for p <= 13, 16 for p <= 251)."""
    if p == 2:
        return 1
    return 8 * (((p * p).bit_length() + 7) // 8)


# x -> x mod p on bytes, for the primes with byte-wide slots
_BYTE_MOD = {p: bytes(b % p for b in range(256)) for p in (3, 5, 7, 11, 13)}


def _pack(row, p, ambient):
    """A vector of F_p^ambient as one int: coordinate j, reduced, in slot j."""
    if len(row) != ambient:
        raise DimensionMismatch(f"vector of length {len(row)} in F_{p}^{ambient}")
    bits = slot_bits(p)
    v = 0
    for j, x in enumerate(row):
        v |= (x % p) << (bits * j)
    return v


def _unpack(v, p, ambient):
    bits = slot_bits(p)
    mask = (1 << bits) - 1
    return tuple((v >> (bits * j)) & mask for j in range(ambient))


def _reduce(v, p, bits):
    """Every slot of a packed row reduced mod p."""
    if bits == 8:
        size = (v.bit_length() + 7) >> 3
        return int.from_bytes(v.to_bytes(size, "little").translate(_BYTE_MOD[p]), "little")
    mask = (1 << bits) - 1
    out = shift = 0
    while v:
        out |= ((v & mask) % p) << shift
        v >>= bits
        shift += bits
    return out


def _clear2(v, basis, pivots):
    """v cleared over GF(2) at the pivots (bit mask) of ``basis``, lowest
    first: a pivot row is zero below its pivot, so adding it never sets a
    pivot bit already cleared."""
    hit = v & pivots
    while hit:
        v ^= basis[(hit & -hit).bit_length() - 1]
        hit = v & pivots
    return v


def _clear(v, p, bits, basis, order):
    """v cleared over odd p at the pivots of ``basis``, taken in the ascending
    order ``order``, and reduced.  Clearing slot q is one multiply-add,
    v += g * row with g = -v[q] mod p, and no reduction: v carries a bound on
    its slots and is reduced only before a step could carry a slot past
    2**bits - 1.  A step from a reduced v stays at or below
    (p - 1) + (p - 1)**2 < p*p < 2**bits, the no-carry bound that fixes
    ``slot_bits``."""
    mask = (1 << bits) - 1
    top = p - 1
    vb = top * top
    for q in order:
        x = (v >> (bits * q)) & mask
        if x:
            g = -x % p
            if g:
                if vb + g * top > mask:
                    v, vb = _reduce(v, p, bits), top
                v += g * basis[q]
                vb += g * top
    return _reduce(v, p, bits) if vb >= p else v


def _rref2_ints(vals, seed=(), width=0):
    """``_rref_ints`` over GF(2), on bit-packed rows."""
    basis = dict(seed)
    pivots = sum(1 << q for q in basis)
    known = len(basis)
    for v in vals:
        v = _clear2(v, basis, pivots)
        if v:
            low = v & -v
            basis[low.bit_length() - 1] = v
            pivots |= low
    if len(basis) > known:
        done = 0  # the pivots of the final rows, all above q
        for q in sorted(basis, reverse=True):
            if q < width:
                break
            basis[q] = _clear2(basis[q], basis, done)
            done |= 1 << q
    return _kept(basis, width)


def _rref_ints(vals, p, seed=(), width=0):
    """Reduced echelon basis of packed F_p rows, kept from pivot ``width`` on:
    pivot -> row, in insertion order.

    The rows extend ``seed``, a reduced echelon basis given as (pivot, row)
    pairs.  Input slots may hold values up to (p - 1)**2; output rows are
    reduced.  Elimination runs in two passes, both by ``_clear2``/``_clear``.
    The forward pass clears each incoming row at the pivots found so far and
    makes a nonzero remainder a pivot row, leaving the other rows alone.  The
    back-substitution pass clears each row whose pivot is ``width`` or more
    at the final rows above it, highest pivot first; a final row is zero at
    every other pivot, so that clears each row at every pivot but its own.
    Rows with a lower pivot are dropped unreduced.  The rows kept are zero at
    each other's pivots and below ``width``: the canonical reduced echelon
    basis of the rows of the span that vanish below ``width`` (with width 0,
    of the whole span).
    """
    if p == 2:
        return _rref2_ints(vals, seed, width)
    bits = slot_bits(p)
    mask = (1 << bits) - 1
    basis = dict(seed)
    order = sorted(basis)
    known = len(order)
    for v in vals:
        v = _clear(v, p, bits, basis, order)
        if v:
            piv = ((v & -v).bit_length() - 1) // bits
            lead = (v >> (bits * piv)) & mask
            if lead != 1:
                v = _reduce(v * pow(lead, p - 2, p), p, bits)
            basis[piv] = v
            insort(order, piv)
    if len(order) > known:
        kept = order[bisect_left(order, width) :]
        for i in range(len(kept) - 2, -1, -1):
            basis[kept[i]] = _clear(basis[kept[i]], p, bits, basis, kept[i + 1 :])
    return _kept(basis, width)


def _kept(basis, width):
    return {q: row for q, row in basis.items() if q >= width} if width else basis


def rref(rows, p):
    """Canonical reduced row echelon form; returns (pivot columns, rows)."""
    rows = list(rows)
    if not rows:
        return [], []
    width = len(rows[0])
    basis = _rref_ints([_pack(r, p, width) for r in rows], p)
    pivots = sorted(basis)
    return pivots, [_unpack(basis[q], p, width) for q in pivots]


class Subspace:
    """A subspace of F_p^ambient in canonical reduced echelon form.

    Every row lives as one int, coordinate j in slot j of ``slot_bits(p)``
    bits: single bits for p = 2, bytes for odd p <= 13, wider slots beyond.
    Stored rows are reduced (every slot below p), so the packed basis is
    canonical and ``==``/``hash`` compare it directly.  Eliminations add
    unreduced multiples and reduce only before a slot could carry (p*p <
    2**bits; see ``_rref_ints``).  Tuple rows are unpacked on demand.
    """

    __slots__ = ("p", "ambient", "pivots", "_ints", "_rows")

    def __init__(self, p, ambient, vectors=()):
        basis = _rref_ints([_pack(v, p, ambient) for v in vectors], p)
        self.p = p
        self.ambient = ambient
        self.pivots = tuple(sorted(basis))
        self._ints = tuple(basis[q] for q in self.pivots)
        self._rows = None

    @classmethod
    def from_packed(cls, p, ambient, ints, seed=()):
        """The span of packed rows and of a reduced basis ``seed`` given as
        (pivot, row) pairs."""
        basis = _rref_ints(ints, p, seed)
        pivots = sorted(basis)
        return cls._reduced(p, ambient, pivots, [basis[q] for q in pivots])

    @classmethod
    def _reduced(cls, p, ambient, pivots, ints):
        """Wrap a packed basis already in canonical reduced echelon form,
        without eliminating again."""
        obj = cls.__new__(cls)
        obj.p = p
        obj.ambient = ambient
        obj.pivots = tuple(pivots)
        obj._ints = tuple(ints)
        obj._rows = None
        return obj

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(_unpack(v, self.p, self.ambient) for v in self._ints)
        return self._rows

    def packed(self):
        return self._ints

    @classmethod
    def zero(cls, p, ambient):
        return cls(p, ambient)

    @classmethod
    def full(cls, p, ambient):
        return cls._reduced(p, ambient, range(ambient), mat_identity(ambient, p))

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, v):
        return self._spans([_pack(v, self.p, self.ambient)])

    def __le__(self, other):
        self._compat(other)
        return other._spans(self._ints)

    def _spans(self, ints):
        """Whether packed rows all lie in this subspace: each clears to zero
        at the pivots of the reduced basis."""
        basis = dict(zip(self.pivots, self._ints))
        if self.p == 2:
            pivots = sum(1 << q for q in self.pivots)
            return not any(_clear2(v, basis, pivots) for v in ints)
        bits = slot_bits(self.p)
        return not any(_clear(v, self.p, bits, basis, self.pivots) for v in ints)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self._ints == other._ints
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self._ints))

    def sum(self, other):
        self._compat(other)
        seed = zip(self.pivots, self._ints)
        return Subspace.from_packed(self.p, self.ambient, other._ints, seed)

    def intersect(self, other):
        self._compat(other)
        if not self.dim or other.dim == other.ambient:
            return self
        if not other.dim or self.dim == self.ambient:
            return other
        # Zassenhaus: eliminate [W|0] against the reduced rows [U|U]; rows
        # with zero left half carry the intersection in their right half.
        shift = slot_bits(self.p) * self.ambient
        stacked = [(q, v | (v << shift)) for q, v in zip(self.pivots, self._ints)]
        return eliminate_block(self.p, other._ints, self.ambient, self.ambient, stacked)

    def _compat(self, other):
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatch("subspaces of different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient})"


def eliminate_block(p, rows, width, ambient, seed=()):
    """The subspace of F_p^ambient spanned by the tails (coordinates
    ``width`` on) of the combinations of packed ``rows`` that vanish on the
    first ``width`` coordinates.  The rows extend the reduced basis ``seed``
    (pivot, row pairs), which is taken as it is.

    The kernel keeps and back-substitutes only the rows whose pivot lies
    past the block; they are already the canonical reduced basis of the
    answer, so no second elimination runs.
    """
    basis = _rref_ints(rows, p, seed, width)
    shift = slot_bits(p) * width
    tail = sorted(basis)
    return Subspace._reduced(
        p, ambient, [q - width for q in tail], [basis[q] >> shift for q in tail]
    )


def packed_nullspace(rows, p, width, extra=0):
    """The subspace {c : c @ rows vanishes on the first ``width`` columns}
    for packed rows with ``width + extra`` columns.  Each basis vector
    carries the last ``extra`` columns of c @ rows before c."""
    bits = slot_bits(p)
    shift = bits * (width + extra)
    aug = [v | (1 << (shift + bits * i)) for i, v in enumerate(rows)]
    return eliminate_block(p, aug, width, extra + len(rows))


def left_nullspace(rows, p, width=None):
    """Basis of {c : c @ rows == 0} for an F_p matrix given as a list of rows.

    With ``width`` given, only the first ``width`` columns must vanish and
    each basis vector carries the remaining columns of c @ rows before c.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    ncols = len(rows[0]) if rows else width
    packed = [_pack(r, p, ncols) for r in rows]
    return list(packed_nullspace(packed, p, width, ncols - width).rows)


# ---------------------------------------------------------------------------
# F_p matrices as lists of packed rows (the layout of ``Subspace`` rows), all
# entries reduced


def pack_matrix(rows, p):
    return [_pack(r, p, len(r)) for r in rows]


def unpack_matrix(a, p, ncols):
    return [list(_unpack(v, p, ncols)) for v in a]


def join_rows(a, p, ncols):
    """The packed rows of a matrix with ``ncols`` columns as one packed
    vector, row after row."""
    shift = slot_bits(p) * ncols
    out = 0
    for i, v in enumerate(a):
        out |= v << (shift * i)
    return out


def transpose(a, p, ncols):
    return pack_matrix(list(zip(*unpack_matrix(a, p, ncols))), p)


def combine(coeffs, vals, p):
    """sum(c * v) over packed rows ``vals``, reduced.  Each term adds at most
    (p - 1)**2 to a slot, and the sum is reduced before a term could carry a
    slot past 2**bits - 1 (the no-carry rule of ``_clear``)."""
    if p == 2:
        out = 0
        for c, v in zip(coeffs, vals):
            if c & 1:
                out ^= v
        return out
    bits = slot_bits(p)
    mask = (1 << bits) - 1
    out = bound = 0
    for c, v in zip(coeffs, vals):
        c %= p
        if c:
            if bound + c * (p - 1) > mask:
                out, bound = _reduce(out, p, bits), p - 1
            out += c * v
            bound += c * (p - 1)
    return _reduce(out, p, bits) if bound >= p else out


def mat_mul(a, b, p):
    """a @ b: row i is the combination of b's rows by the entries of a's row i
    (over GF(2) the XOR of the rows of b that a's bits select)."""
    if p == 2:
        out = []
        for v in a:
            acc = 0
            while v:
                low = v & -v
                acc ^= b[low.bit_length() - 1]
                v ^= low
            out.append(acc)
        return out
    return [combine(_unpack(v, p, len(b)), b, p) for v in a]


def mat_add(a, b, p):
    if p == 2:
        return [x ^ y for x, y in zip(a, b)]
    bits = slot_bits(p)
    return [_reduce(x + y, p, bits) for x, y in zip(a, b)]


def mat_identity(nn, p):
    bits = slot_bits(p)
    return [1 << (bits * i) for i in range(nn)]


def mat_is_zero(a):
    return not any(a)


def poly_eval_matrix(poly, x, p):
    """f(x) for a polynomial f given lowest degree first, by Horner's rule."""
    out = [0] * len(x)
    for c in reversed(poly):
        out = mat_mul(out, x, p)
        if c % p:
            out = mat_add(out, [(c % p) * e for e in mat_identity(len(x), p)], p)
    return out


# ---------------------------------------------------------------------------
# bridge between K-objects and prime-field coordinates


def mult_matrix(field, lam):
    """Packed F_p matrix of y -> y*lam on coefficient row vectors."""
    lam = field.el(lam)
    cache = field._mult_matrices
    hit = cache.get(lam.coeffs)
    if hit is None:
        rows = [(field.el([0] * j + [1]) * lam).coeffs for j in range(field.n)]
        hit = cache[lam.coeffs] = pack_matrix(rows, field.p)
    return hit


def frob_matrix(field, k):
    """Packed F_p matrix of the k-th Frobenius power on coefficient row vectors."""
    k %= field.n
    cache = field._frob_matrices
    hit = cache.get(k)
    if hit is None:
        rows = [Aut(field, k)(field.el([0] * j + [1])).coeffs for j in range(field.n)]
        hit = cache[k] = pack_matrix(rows, field.p)
    return hit


def expand_vector(field, kvec):
    out = []
    for x in kvec:
        out.extend(field.el(x).coeffs)
    return out


def prime_matrix(field, sigma, kmatrix):
    """Packed F_p matrix (row convention) of the semilinear map
    v -> sigma(v) @ kmatrix.  Block (i, j) is Frobenius then multiplication
    by entry (i, j); the blocks of a row band fill disjoint slots.  Each
    distinct entry's block is built once per call: a matrix over GF(p^n)
    has at most p^n - 1 distinct nonzero entries."""
    n, p = field.n, field.p
    fm = frob_matrix(field, sigma.k)
    shift = slot_bits(p) * n
    out = [0] * (kmatrix.nrows * n)
    blocks = {}
    for i, krow in enumerate(kmatrix.rows):
        for j, entry in enumerate(krow):
            if entry:
                block = blocks.get(entry.coeffs)
                if block is None:
                    block = blocks[entry.coeffs] = mat_mul(fm, mult_matrix(field, entry), p)
                for a, brow in enumerate(block):
                    out[i * n + a] |= brow << (shift * j)
    return out


def k_matrix(field, a, nrows, ncols):
    """The K-matrix of a K-linear map from its packed prime matrix: K-entry
    (i, j) is the image of 1 under prime block (i, j), the first row of that
    block."""
    n, p = field.n, field.p
    rows = []
    for i in range(nrows):
        coords = _unpack(a[i * n], p, ncols * n)
        rows.append([FieldElement(field, coords[j * n : j * n + n]) for j in range(ncols)])
    return Matrix(field, rows, nrows, ncols)


def scalar_block_matrix(field, lam, blocks, k=0):
    """Packed block-diagonal F_p matrix of v -> lam * sigma^k(v) on K^blocks,
    with sigma the Frobenius map."""
    shift = slot_bits(field.p) * field.n
    rm = mult_matrix(field, lam)
    if k % field.n:
        rm = mat_mul(frob_matrix(field, k), rm, field.p)
    return [row << (shift * b) for b in range(blocks) for row in rm]


def is_k_stable(field, space):
    """Whether a prime-field subspace is stable under the K-action: the
    multiplicative generator maps its basis back into it."""
    if space.dim == 0:
        return True
    gen = scalar_block_matrix(field, field.multiplicative_generator(), space.ambient // field.n)
    return space._spans(mat_mul(space.packed(), gen, field.p))


def k_dim(field, space):
    """K-dimension of a K-stable prime-field subspace."""
    if space.dim % field.n:
        raise DimensionMismatch("subspace is not K-stable (dimension not divisible by n)")
    return space.dim // field.n
