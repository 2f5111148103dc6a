"""Classification-independent ground truth: Hom spaces, endomorphism rings,
indecomposability, isomorphism of indecomposables, brute-force decomposition.

Everything is exact linear algebra over the prime subfield.  A morphism is
one packed prime matrix per vertex (one int per row in the ``linalg``
layout), intertwining the arrows' prime matrices; the endomorphism ring is
handled as a finite-dimensional F_p-algebra acting faithfully on the module,
where its radical is computed with the characteristic-polynomial-coefficient
chain for small characteristic.

End elements are packed rows multiplied with ``linalg.mat_mul``; they are
unpacked only where ``charpoly`` reads entries.  The radical chain keeps its
basis as packed coordinate rows, and its first level is the null space of
the trace form, one Gram matrix.  ``brute_decompose`` builds End(M) once per
node and tries its basis elements as splitting candidates before it decides
locality, so the radical is computed only for a node that no basis element
splits.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import OracleFailure, PresentationMismatch, SpaceMismatch, TooLarge
from .fields import FieldElement, _poly_divmod, _poly_gcd, _poly_mul, _poly_powmod, _poly_sub, _trim
from .linalg import (
    Matrix,
    Subspace,
    _rref_ints,
    _unpack,
    combine,
    frob_matrix,
    join_rows,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mult_matrix,
    pack_matrix,
    packed_nullspace,
    poly_eval_matrix,
    scalar_block_matrix,
    slot_bits,
    transpose,
    unpack_matrix,
)
from .reps import Representation

SEED = 987654321  # the randomised searches' seed, echoed by oracle-check
BRUTE_LIMIT = 12  # prime-field dimension bound for brute_decompose


# -- direct sums and submodules -------------------------------------------------


def direct_sum(m1, m2):
    if m1.pres is not m2.pres:
        raise PresentationMismatch("summands live over different presentations")
    pres = m1.pres
    field = pres.field
    dims = {v: m1.dims[v] + m2.dims[v] for v in pres.vertices}
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        a, b = m1.mats[name], m2.mats[name]
        rows = []
        for r in a.rows:
            rows.append(list(r) + [field.zero()] * b.ncols)
        for r in b.rows:
            rows.append([field.zero()] * a.ncols + list(r))
        mats[name] = Matrix(field, rows, dims[info.source], dims[info.target])
    return Representation(pres, dims, mats)


# -- Hom spaces ------------------------------------------------------------------


class HomSpace(NamedTuple):
    source: Representation
    target: Representation
    basis: list  # list of dict vertex -> packed prime matrix

    @property
    def dim(self):
        return len(self.basis)


def hom_space(m1, m2):
    """All morphisms m1 -> m2: per-vertex K-linear maps intertwining the
    arrows, each as its packed prime matrix.

    The intertwining condition M_a @ T_{h(a)} = sigma_a(T_{t(a)}) @ N_a is
    F_p-linear in the entries of the T's, so the solution space is an
    F_p-space; its canonical reduced basis is returned.  Each unknown (a
    prime coordinate of one T entry) is one packed row: its image
    M_a @ T_h - sigma_a(T_t) @ N_a in the equation coordinates.  A loop puts
    both terms in one slot, so they go through ``combine``.  For each i, a
    solution holds row i * n of T_v's prime matrix, the K-entries of row i
    of T_v; ``_k_linear`` fills in the other rows.
    """
    if m1.pres is not m2.pres:
        raise PresentationMismatch("modules live over different presentations")
    pres = m1.pres
    field = pres.field
    p, n = field.p, field.n
    d1, d2 = m1.dims, m2.dims
    bits = slot_bits(p)
    # unknown (v, i, j, c) is coordinate unk[v] + (i * d2[v] + j) * n + c;
    # equation (a, i, j, c) is slot eq[a] + (i * d2[h(a)] + j) * n + c
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
        # M_a @ T_h: T_h[i][j] reaches equation (i', j) through M_a[i'][i]
        for out_i, mrow in enumerate(m1.mats[name].rows):
            for i, coef in enumerate(mrow):
                if coef:
                    block = mult_matrix(field, coef)
                    for j in range(d2[h]):
                        u = unk[h] + (i * d2[h] + j) * n
                        shift = bits * (eq[name] + (out_i * d2[h] + j) * n)
                        for c, row in enumerate(block):
                            coeffs[u + c].append(1)
                            terms[u + c].append(row << shift)
        # -sigma_a(T_t) @ N_a: T_t[i][j] reaches equation (i, j') through N_a[j][j']
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
    times_t = {v: scalar_block_matrix(field, field.gen(), d2[v]) for v in pres.vertices}
    basis = []
    for sol in packed_nullspace(images, p, neq).packed():
        per_vertex = {}
        for v in pres.vertices:
            width = bits * d2[v] * n
            mask = (1 << width) - 1
            first = [(sol >> (bits * unk[v] + width * i)) & mask for i in range(d1[v])]
            per_vertex[v] = _k_linear(first, times_t[v], n, p)
        basis.append(per_vertex)
    return HomSpace(m1, m2, basis)


def _k_linear(first, times_t, n, p):
    """The packed prime matrix of a K-linear map from the K-entries of its
    rows, packed: row i * n + a is t^a times row i, with t the generator of
    K over F_p and ``times_t`` the prime matrix of multiplication by t."""
    bands = [first]
    for _ in range(n - 1):
        bands.append(mat_mul(bands[-1], times_t, p))
    return [row for rows in zip(*bands) for row in rows]


# -- the endomorphism algebra as an F_p matrix algebra ---------------------------


class EndAlgebra:
    """End(M) acting faithfully on the module's prime-field coordinates.

    Elements are lists of packed rows; each basis element is kept joined
    into one packed vector, so that an element is one ``combine``.
    """

    def __init__(self, rep):
        self.rep = rep
        self.p = rep.field.p
        self.amb = rep.prime_dim()
        basis = hom_space(rep, rep).basis
        self.flats = [join_rows(self._flatten(b), self.p, self.amb) for b in basis]
        self.dim = len(self.flats)

    def _flatten(self, per_vertex):
        """A morphism as one block-diagonal packed matrix, vertex by vertex."""
        bits = slot_bits(self.p)
        out = []
        for v in self.rep.pres.vertices:
            base = len(out)
            out += [row << (bits * base) for row in per_vertex[v]]
        return out

    def element(self, coeffs):
        flat = combine(coeffs, self.flats, self.p)
        shift = slot_bits(self.p) * self.amb
        row = (1 << shift) - 1
        return [(flat >> (shift * i)) & row for i in range(self.amb)]

    def coords(self, mat):
        """Coordinates of an endomorphism matrix (packed rows) in the hom basis."""
        flats = self.flats + [join_rows(mat, self.p, self.amb)]
        for s in packed_nullspace(flats, self.p, self.amb * self.amb).rows:
            if s[-1] % self.p:
                inv = pow(s[-1], self.p - 2, self.p)
                return [(-inv * c) % self.p for c in s[:-1]]
        raise SpaceMismatch("matrix not in the algebra")


def charpoly(a, p):
    """Characteristic polynomial mod p via Hessenberg reduction.

    Returned lowest degree first, length n+1, leading coefficient 1.
    """
    nn = len(a)
    h = [list(row) for row in a]
    for c in range(nn - 1):
        piv = next((r for r in range(c + 1, nn) if h[r][c] % p), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for r in range(nn):
                h[r][piv], h[r][c + 1] = h[r][c + 1], h[r][piv]
        inv = pow(h[c + 1][c], p - 2, p)
        for r in range(c + 2, nn):
            if h[r][c] % p:
                f = (h[r][c] * inv) % p
                h[r] = [(x - f * y) % p for x, y in zip(h[r], h[c + 1])]
                for rr in range(nn):
                    h[rr][c + 1] = (h[rr][c + 1] + f * h[rr][r]) % p
    # charpoly of Hessenberg matrix by the standard recurrence
    polys = [[1]]  # p_0 = 1
    for m in range(1, nn + 1):
        # p_m(t) = (t - h[m-1][m-1]) p_{m-1}(t) - sum over products of
        # subdiagonal entries
        term = _poly_shift_sub(polys[m - 1], h[m - 1][m - 1], p)
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = (prod * h[i][i - 1]) % p
            if prod == 0:
                break
            coef = (prod * h[i - 1][m - 1]) % p
            if coef:
                term = [
                    (x - coef * y) % p
                    for x, y in zip(term, polys[i - 1] + [0] * (len(term) - len(polys[i - 1])))
                ]
        polys.append(term)
    return polys[nn]


def _poly_shift_sub(poly, diag, p):
    # (t - diag) * poly
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = (out[i + 1] + c) % p
        out[i] = (out[i] - diag * c) % p
    return out


def radical_basis(alg):
    """Packed coordinate rows, in the hom basis, of a basis of the radical of
    the endomorphism algebra.

    Chain: J_0 = E; J_{i+1} = {x in J_i : c_{p^i}(x y) = 0 for all y in J_i}
    where c_k is the k-th characteristic polynomial coefficient of the action
    on the module.  Stops once p^i exceeds the module dimension.  The first
    level needs no characteristic polynomial: c_1(xy) = -tr(xy), so J_1 is
    the null space of the trace form.  Both forms are symmetric, since xy
    and yx have one characteristic polynomial.  Each level's basis is the
    null space of its form times the previous basis, so it stays independent.
    """
    p = alg.p
    nn = alg.amb
    basis = mat_identity(alg.dim, p)
    power = 1
    while power <= nn and basis:
        if power == 1:
            gram = _trace_form(alg)
        else:
            mats = [alg.element(_unpack(b, p, alg.dim)) for b in basis]
            rows = [[0] * len(mats) for _ in mats]
            for i, x in enumerate(mats):
                for j in range(i, len(mats)):
                    z = mat_mul(x, mats[j], p)
                    if not _is_nilpotent(z, p):  # else every lower coefficient is 0
                        rows[i][j] = rows[j][i] = charpoly(unpack_matrix(z, p, nn), p)[nn - power]
            gram = pack_matrix(rows, p)
        basis = mat_mul(packed_nullspace(gram, p, len(basis)).packed(), basis, p)
        power *= p
    return basis


def _is_nilpotent(z, p):
    """Whether a packed n x n matrix has z^n == 0, by repeated squaring."""
    power, reach = z, 1
    while any(power):
        if reach >= len(z):
            return False
        power = mat_mul(power, power, p)
        reach *= 2
    return True


def _trace_form(alg):
    """Gram matrix tr(x_i x_j) on the hom basis, as packed rows: tr(xy) pairs
    the joined rows of x with those of y's transpose, so it is one product."""
    nn = alg.amb
    cols = transpose(alg.flats, alg.p, nn * nn)
    swapped = [cols[b * nn + a] for a in range(nn) for b in range(nn)]
    return mat_mul(alg.flats, swapped, alg.p)


def min_poly(mat, p):
    """Minimal polynomial of an F_p matrix given as packed rows, lowest degree
    first, monic.  The joined powers, tagged with their degree, extend one
    reduced basis until one reduces to its tags: the first dependency."""
    nn = len(mat)
    width = nn * nn
    shift = slot_bits(p) * width
    basis = {}
    power = mat_identity(nn, p)
    deg = 0
    while True:
        tagged = join_rows(power, p, nn) | (1 << (shift + slot_bits(p) * deg))
        basis = _rref_ints([tagged], p, basis.items())
        dep = [q for q in basis if q >= width]
        if dep:
            s = _unpack(basis[dep[0]] >> shift, p, deg + 1)
            inv = pow(s[deg], p - 2, p)
            return [(c * inv) % p for c in s]
        power = mat_mul(power, mat, p)
        deg += 1


# -- polynomial factorization over F_p (for idempotent splitting) ----------------


def _pderiv(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _pxgcd(a, b, p):
    """(g, u, v) with u a + v b = g, g monic."""
    r0, r1 = _trim(a), _trim(b)
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1, p), p)
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0, u0, v0 = (tuple((c * inv) % p for c in x) for x in (r0, u0, v0))
    return r0, u0, v0


def _monic(f, p):
    f = _trim(c % p for c in f)
    inv = pow(f[-1], p - 2, p)
    return tuple((c * inv) % p for c in f)


def _one_irreducible_factor(f, p, rng):
    """Some monic irreducible factor of a nonconstant polynomial."""
    f = _monic(f, p)
    if len(f) == 2:
        return f
    d = _pderiv(f, p)
    if not d:
        # f(x) = g(x)^p with matching coefficients over F_p
        g = f[::p]
        return _one_irreducible_factor(g, p, rng)
    g = _poly_gcd(f, d, p)
    if len(g) > 1:
        square_free = _poly_divmod(f, g, p)[0]
        if len(square_free) > 1:
            return _one_irreducible_factor_squarefree(square_free, p, rng)
        return _one_irreducible_factor(g, p, rng)
    return _one_irreducible_factor_squarefree(f, p, rng)


def _one_irreducible_factor_squarefree(f, p, rng):
    if len(f) == 2:
        return f
    x = (0, 1)
    h = x
    deg = len(f) - 1
    for d in range(1, deg + 1):
        h = _poly_powmod(h, p, f, p)
        g = _poly_gcd(_poly_sub(h, x, p), f, p)
        if len(g) > 1:
            if len(g) - 1 == d:
                return g
            return _equal_degree_factor(g, d, p, rng)
        if 2 * (d + 1) > deg:
            break
    return f  # irreducible


def _equal_degree_factor(f, d, p, rng):
    """One irreducible factor of a square-free product of degree-d irreducibles."""
    if len(f) - 1 == d:
        return f
    while True:
        h = _trim(rng.randrange(p) for _ in range(len(f) - 1))
        if len(h) <= 1:
            continue
        g = _poly_gcd(h, f, p)
        if not 1 < len(g) < len(f):
            if p == 2:
                t, acc = h, h
                for _ in range(d - 1):
                    acc = _poly_divmod(_poly_mul(acc, acc, 2), f, 2)[1]
                    t = _poly_sub(t, acc, 2)
            else:
                t = _poly_sub(_poly_powmod(h, (p ** d - 1) // 2, f, p), (1,), p)
            g = _poly_gcd(t, f, p)
        if 1 < len(g) < len(f):
            part = g if len(g) <= (len(f) + 1) // 2 else _poly_divmod(f, g, p)[0]
            return _equal_degree_factor(part, d, p, rng)


# -- indecomposability and decomposition ------------------------------------------


def _quotient_is_field(alg, rad):
    """Whether End/rad is a field, for ``rad`` the radical's packed coordinate
    rows.  Both tests run on joined matrices modulo the radical's span R, for
    the basis elements U off the radical's pivots.  End/rad is commutative
    when every commutator in U lies in R; then x -> x^p is F_p-linear on it,
    with one fixed dimension per simple factor (Berlekamp).  The fixed space
    is the null space of the rows u^p - u stacked over R's independent rows.
    """
    p, nn = alg.p, alg.amb
    pivots = _rref_ints(rad, p)
    units = [
        alg.element([int(j == i) for j in range(alg.dim)]) for i in range(alg.dim) if i not in pivots
    ]
    rad_rows = mat_mul(rad, alg.flats, p)

    def minus(x, y):
        return combine((1, p - 1), (join_rows(x, p, nn), join_rows(y, p, nn)), p)

    commutators = [
        minus(mat_mul(x, y, p), mat_mul(y, x, p)) for i, x in enumerate(units) for y in units[:i]
    ]
    if len(_rref_ints(rad_rows + commutators, p)) > len(rad_rows):
        return False
    moved = []
    for x in units:
        power = x
        for _ in range(p - 1):
            power = mat_mul(power, x, p)
        moved.append(minus(power, x))
    return packed_nullspace(moved + rad_rows, p, nn * nn).dim == 1


def _idempotent_exhaustive(alg):
    """Scan all algebra elements for a nontrivial idempotent."""
    p = alg.p
    id_coords = alg.coords(mat_identity(alg.amb, p))
    total = p ** alg.dim
    for code in range(total):
        coeffs = [(code // p ** i) % p for i in range(alg.dim)]
        if not any(coeffs) or coeffs == id_coords:
            continue
        e = alg.element(coeffs)
        # e*e row by row, up to the first row that differs from e's
        if all(mat_mul([row], e, p)[0] == row for row in e):
            return coeffs
    return None


def is_indecomposable(rep):
    """End(M) is local: no idempotents besides 0 and 1."""
    if rep.dim() == 0:
        return False
    alg = EndAlgebra(rep)
    return alg.dim == 1 or _is_local(alg)


def _is_local(alg):
    """End(M) has no idempotents besides 0 and 1: End/rad is a field."""
    return _quotient_is_field(alg, radical_basis(alg))


def _splitting_idempotent_from(alg, coeffs, rng):
    """Try to build a nontrivial idempotent from one algebra element x: with
    g an irreducible factor of its minimal polynomial, g^m the full power of
    g in it and h the rest, the idempotent is the projector onto ker g^m(x)."""
    p = alg.p
    x = alg.element(coeffs)
    mp = min_poly(x, p)
    g = _one_irreducible_factor(mp, p, rng)
    gm, h = (1,), tuple(mp)
    while True:
        q, r = _poly_divmod(h, g, p)
        if r:
            break
        gm, h = _poly_mul(gm, g, p), q
    if len(h) < 2:
        return None
    _, u, v = _pxgcd(gm, h, p)
    # u g^m + v h = 1, so e = (v h)(x) is the projector onto ker(g^m(x))
    e = poly_eval_matrix(_poly_mul(v, h, p), x, p)
    if mat_is_zero(e) or e == mat_identity(alg.amb, p) or mat_mul(e, e, p) != e:
        return None
    return e


def _find_splitting_idempotent(alg):
    """A nontrivial idempotent of End(M), from the basis elements; None once
    they have failed and End(M) turns out to be local; else from random
    elements and, for a small algebra, an exhaustive scan.  OracleFailure if
    none is found."""
    rng = random.Random(SEED)
    for i in range(alg.dim):
        e = _splitting_idempotent_from(alg, [1 if j == i else 0 for j in range(alg.dim)], rng)
        if e is not None:
            return e
    if _is_local(alg):
        return None
    for _ in range(2000):
        cand = [rng.randrange(alg.p) for _ in range(alg.dim)]
        if not any(cand):
            continue
        e = _splitting_idempotent_from(alg, cand, rng)
        if e is not None:
            return e
    if alg.p ** alg.dim <= 1 << 16:
        coeffs = _idempotent_exhaustive(alg)
        if coeffs is not None:
            return alg.element(coeffs)
    raise OracleFailure("no splitting idempotent found for a decomposable module")


def _split_by_idempotent(rep, e):
    """The two summands cut out by an idempotent given as packed rows on
    prime coordinates: the images of e and of 1 - e."""
    p = rep.field.p
    complement = [combine((1, p - 1), pair, p) for pair in zip(mat_identity(len(e), p), e)]
    return [_image_module(rep, e), _image_module(rep, complement)]


def _image_module(rep, e):
    """The submodule image(e) of an endomorphism e (packed rows on prime
    coordinates, block diagonal by vertex) in its reduced echelon basis over
    K.  Over F_p the image is a K-subspace, and the rows of its reduced
    echelon basis whose pivot is the first prime coordinate of a K-column
    are exactly its reduced echelon basis over K.  A vector of the image has
    its coordinates in that basis at those K-columns, so the arrows'
    matrices are read off the images of the basis vectors."""
    pres, field = rep.pres, rep.field
    p, n = field.p, field.n
    bits = slot_bits(p)
    spaces, bases, base = {}, {}, 0
    for v in pres.vertices:
        dn = rep.prime_dim(v)
        mask = (1 << (bits * dn)) - 1
        space = spaces[v] = Subspace.from_packed(
            p, dn, [(row >> (bits * base)) & mask for row in e[base : base + dn]]
        )
        bases[v] = [(q // n, row) for q, row in zip(space.pivots, space.packed()) if q % n == 0]
        base += dn
    dims = {v: len(bases[v]) for v in pres.vertices}
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        space = spaces[info.target]
        images = mat_mul([row for _, row in bases[info.source]], rep.prime(name), p)
        if not space._spans(images):
            raise SpaceMismatch("an arrow maps the image of an idempotent outside it")
        cols = [c for c, _ in bases[info.target]]
        rows = []
        for img in images:
            coords = _unpack(img, p, space.ambient)
            rows.append([FieldElement(field, coords[c * n : c * n + n]) for c in cols])
        mats[name] = Matrix(field, rows, dims[info.source], dims[info.target])
    return Representation(pres, dims, mats)


def brute_decompose(rep):
    """Indecomposable summands by recursive idempotent splitting, with one
    End(M) per node."""
    if rep.prime_dim() > BRUTE_LIMIT:
        raise TooLarge(f"module of prime dimension {rep.prime_dim()} exceeds {BRUTE_LIMIT}")
    if rep.dim() == 0:
        return []
    alg = EndAlgebra(rep)
    e = None if alg.dim == 1 else _find_splitting_idempotent(alg)
    if e is None:
        return [rep]
    part_a, part_b = _split_by_idempotent(rep, e)
    if part_a.dim() == 0 or part_b.dim() == 0:
        raise OracleFailure("idempotent failed to split the module")
    return brute_decompose(part_a) + brute_decompose(part_b)


def _indec_isomorphic(m1, m2):
    """Indecomposables are isomorphic iff some round trip m1 -> m2 -> m1
    through the hom bases is not nilpotent."""
    if m1.dims != m2.dims:
        return False
    if m1.dim() == 0:
        return True
    p = m1.field.p
    h21 = hom_space(m2, m1).basis
    for f in hom_space(m1, m2).basis:
        for g in h21:
            if not all(_is_nilpotent(mat_mul(f[v], g[v], p), p) for v in f):
                return True
    return False
