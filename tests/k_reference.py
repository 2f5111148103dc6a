"""K-level reference code: elimination, semilinear maps, the relation check,
Hom spaces and idempotent splitting on matrices with ``FieldElement``
entries.

These are the routines the packed prime-field code replaced, kept as the
slow path that the differential tests compare it with.
"""

from clannish.errors import SpaceMismatch
from clannish.fields import Aut
from clannish.linalg import (
    Matrix,
    _unpack,
    combine,
    frob_matrix,
    mat_mul,
    mult_matrix,
    packed_nullspace,
    slot_bits,
)
from clannish.reps import Representation


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


def k_inverse(m):
    """The inverse of a square K-matrix by K-elimination of [m | I]."""
    nn = m.nrows
    ident = Matrix.identity(m.field, nn).rows
    pivots, rows = k_rref([r + e for r, e in zip(m.rows, ident)], nn)
    if len(pivots) < nn:
        raise ZeroDivisionError("matrix is singular")
    return Matrix(m.field, [r[nn:] for r in rows], nn, nn)


def k_is_invertible(m):
    return len(k_rref(m.rows)[0]) == m.nrows


class SemilinearMap:
    """A sigma-semilinear map acting on row vectors by v -> sigma(v) @ M."""

    __slots__ = ("sigma", "matrix")

    def __init__(self, sigma, matrix):
        self.sigma = sigma
        self.matrix = matrix

    def apply(self, v):
        v = tuple(self.matrix.field.el(x) for x in v)
        return self.matrix.apply_row(tuple(self.sigma(x) for x in v))

    def after(self, other):
        """self composed after other: first other, then self."""
        return SemilinearMap(self.sigma * other.sigma, self.sigma(other.matrix) @ self.matrix)


def contract_vector(field, pvec):
    n = field.n
    return tuple(field.el(pvec[i : i + n]) for i in range(0, len(pvec), n))


def coords_in_basis(field, basis_matrix, vector):
    """Solve x @ basis_matrix == vector over K (basis rows independent)."""
    nn, cols = basis_matrix.nrows, basis_matrix.ncols
    ident = Matrix.identity(field, nn).rows
    pivots, rows = k_rref([r + e for r, e in zip(basis_matrix.rows, ident)], cols)
    # each reduced row is (basis combination, its coefficients): subtract
    # them from (vector, 0) until the vector part is zero
    vec = list(vector) + [field.zero()] * nn
    for c, row in zip(pivots, rows):
        f = vec[c]
        if f:
            vec = [x - f * y for x, y in zip(vec, row)]
    if any(vec[:cols]):
        raise SpaceMismatch("vector outside the subspace")
    return [-x for x in vec[cols:]]


def path_action(rep, names, vertex=None):
    """(sigma_p, matrix) of a path acting by v -> sigma_p(v) @ matrix."""
    source, _ = rep.pres.path_endpoints(names, vertex)
    acc = SemilinearMap(Aut(rep.field, 0), Matrix.identity(rep.field, rep.dims[source]))
    for name in reversed(names):
        acc = SemilinearMap(rep.pres.sigma(name), rep.mats[name]).after(acc)
    return acc


def check_relations(rep):
    """All defining relations hold: special quadratics and zero relations."""
    for s, q in rep.pres.special.items():
        if not q.is_root_matrix(rep.mats[s]):
            return False
    return all(path_action(rep, r).matrix.is_zero() for r in rep.pres.zero_relations)


def hom_space(m1, m2):
    """Hom(m1, m2) as a list of per-vertex K-matrices: the packed Hom
    equations of ``homalg.hom_space``, with each solution contracted to
    K-entries one by one."""
    pres = m1.pres
    field = pres.field
    p, n = field.p, field.n
    d1, d2 = m1.dims, m2.dims
    bits = slot_bits(p)
    unk, eq = {}, {}
    nunk = neq = 0
    for v in pres.vertices:
        unk[v] = nunk
        nunk += d1[v] * d2[v] * n
    for name in pres.arrow_names:
        eq[name] = neq
        neq += d1[pres.arrows[name].source] * d2[pres.arrows[name].target] * n
    coeffs = [[] for _ in range(nunk)]
    terms = [[] for _ in range(nunk)]
    for name in pres.arrow_names:
        t, h = pres.arrows[name].source, pres.arrows[name].target
        for out_i, mrow in enumerate(m1.mats[name].rows):
            for i, coef in enumerate(mrow):
                if coef:
                    for j in range(d2[h]):
                        u = unk[h] + (i * d2[h] + j) * n
                        shift = bits * (eq[name] + (out_i * d2[h] + j) * n)
                        for c, row in enumerate(mult_matrix(field, coef)):
                            coeffs[u + c].append(1)
                            terms[u + c].append(row << shift)
        fm = frob_matrix(field, pres.sigma(name).k)
        for j, nrow in enumerate(m2.mats[name].rows):
            for out_j, coef in enumerate(nrow):
                if coef:
                    block = mat_mul(fm, mult_matrix(field, coef), p)
                    for i in range(d1[t]):
                        u = unk[t] + (i * d2[t] + j) * n
                        shift = bits * (eq[name] + (i * d2[h] + out_j) * n)
                        for c, row in enumerate(block):
                            coeffs[u + c].append(p - 1)
                            terms[u + c].append(row << shift)
    images = [combine(cs, ts, p) for cs, ts in zip(coeffs, terms)]
    basis = []
    for sol in packed_nullspace(images, p, neq).rows:
        per_vertex = {}
        for v in pres.vertices:
            width = d2[v] * n
            at = [unk[v] + i * width for i in range(d1[v])]
            rows = [contract_vector(field, sol[a : a + width]) for a in at]
            per_vertex[v] = Matrix(field, rows, d1[v], d2[v])
        basis.append(per_vertex)
    return basis


def sub_representation(rep, spaces):
    """Restrict to per-vertex K-subspaces (given as K-row matrices)."""
    pres = rep.pres
    field = pres.field
    dims = {v: spaces[v].nrows for v in pres.vertices}
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        src, tgt = spaces[info.source], spaces[info.target]
        sigma = pres.sigma(name)
        rows = []
        for r in src.rows:
            img = rep.mats[name].apply_row(tuple(sigma(x) for x in r))
            rows.append(coords_in_basis(field, tgt, img))
        mats[name] = Matrix(field, rows, dims[info.source], dims[info.target])
    return Representation(pres, dims, mats)


def split_by_idempotent(rep, e):
    """The two summands cut out by an idempotent given as packed rows on
    prime coordinates, through K-matrices and K-elimination."""
    field = rep.field
    n = field.n
    bits = slot_bits(field.p)
    out = []
    for use_complement in (False, True):
        spaces = {}
        base = 0
        for v in rep.pres.vertices:
            d = rep.dims[v]
            # K-entry (i, j) is the image of 1 under the n x n prime block
            # (i, j): that block's first row
            rows = []
            for i in range(d):
                coords = _unpack(e[base + i * n] >> (bits * base), field.p, d * n)
                rows.append([field.el(coords[j * n : j * n + n]) for j in range(d)])
            mat = Matrix(field, rows, d, d)
            if use_complement:
                mat = Matrix.identity(field, d) - mat
            spaces[v] = Matrix(field, k_rref(mat.rows)[1], ncols=d)
            base += d * n
        out.append(sub_representation(rep, spaces))
    return out
