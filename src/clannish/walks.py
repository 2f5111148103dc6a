"""Walks, their quivers, the canonically associated walk, index automorphisms
and the explicit construction of string/band modules.

A walk is a word with each star letter s* replaced by s or s^-1, so it is a
``words.Word`` whose letters are of kind 'd' or 'i': a special loop s
appears as ``Letter("d", "s")`` (direct) or ``Letter("i", "s")`` (inverse),
and an ordinary letter keeps its kind.  Since the canonically associated
walk of a symmetric band orients symmetry positions by the sign of the
index, ``Word`` has a walk-only two-sided shape 'ztwo', with separate blocks
for the positive and the non-positive axis.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    InvalidParameterMatrix,
    NotEndAdmissible,
    PreconditionViolated,
)
from .fields import Aut
from .linalg import Matrix
from .presentation import Letter
from .skewquad import twist_quadratic
from . import words as words_mod
from .words import (
    NATURALLY_INVERSE,
    SYMMETRY,
    StringDescriptor,
    Word,
    classify_position,
    symmetric_decomposition,
)


def walk_star(pres, walk):
    """The underlying word C*."""
    conv = lambda block: tuple(Letter("s", l.name) if l.name in pres.special else l for l in block)
    if walk.shape == "finite":
        return Word("finite", walk.v0, walk.eps, conv(walk.letters))
    if walk.shape == "right":
        return Word("right", walk.v0, walk.eps, conv(walk.letters), conv(walk.period))
    # for both two-sided shapes the word is periodic with the positive block
    return Word("zper", walk.v0, walk.eps, (), conv(walk.period))


def finite_walk(pres, letters, v0=None, eps=None):
    letters = tuple(letters)
    if any(l.kind == "s" for l in letters):
        raise PreconditionViolated("a walk orients every star letter as 'd' or 'i'")
    if letters:
        v0 = pres.head(letters[0])
        eps = pres.sign(letters[0])
    return words_mod.validate_word(pres, Word("finite", v0, eps, letters))


def make_walk_from_word(pres, w, orientations):
    """Replace each star letter s* of w by s (direct) or s^-1 (inverse).

    ``orientations``: mapping position -> bool (direct), called at star
    positions only (1..m and 0..1-m for a periodic word of period m); an
    ordinary letter is its own walk letter.
    """
    def orient(positions, letters):
        return tuple(
            Letter("d" if orientations(i) else "i", l.name) if l.kind == "s" else l
            for i, l in zip(positions, letters)
        )

    if w.shape == "finite":
        return Word("finite", w.v0, w.eps, orient(range(1, len(w.letters) + 1), w.letters))
    if w.shape == "zper":
        m = len(w.period)
        pos = orient(range(1, m + 1), w.period)
        # positions 0, -1, ..., 1 - m hold w_m, w_{m-1}, ..., w_1
        neg = orient(range(0, -m, -1), w.period[::-1])
        if neg == pos[::-1]:
            return Word("zper", w.v0, w.eps, (), pos)
        return Word("ztwo", w.v0, w.eps, (), pos, neg)
    raise NotEndAdmissible("canonical walks exist for finite or periodic words")


def canonical_walk(pres, w):
    """The naturally oriented walk with star positions at symmetries split by sign."""
    if not words_mod.is_end_admissible(pres, w):
        raise NotEndAdmissible("word is not end-admissible")

    classes = {}

    def orientation(i):
        key = i
        if w.shape == "zper":
            key = (i - 1) % len(w.period) + 1
        if key not in classes:
            classes[key] = classify_position(pres, w, key)
        c = classes[key]
        if c == SYMMETRY:
            return i <= 0
        return c != NATURALLY_INVERSE

    return make_walk_from_word(pres, w, orientation)


def special_direct_walk(pres, w):
    return make_walk_from_word(pres, w, lambda i: True)


def special_inverse_walk(pres, w):
    return make_walk_from_word(pres, w, lambda i: False)


# -- quiver of a walk ----------------------------------------------------------


class WalkQuiver(NamedTuple):
    """Arrows (i, j, label) meaning an arrow i -> j sent to the label arrow."""

    vertices: tuple
    arrows: tuple
    vertex_map: dict


def quiver_of_walk(pres, walk, window=None):
    """The quiver Q_C with f_C, for finite walks or a window of indices."""
    if walk.shape == "finite":
        lo, hi = 0, len(walk.letters)
    elif window is not None:
        lo, hi = window
    else:
        raise NotEndAdmissible("infinite walks need an explicit window")
    vertices = tuple(range(lo, hi + 1))
    arrows = []
    for i in range(lo + 1, hi + 1):
        letter = walk.letter_at(i)
        if letter is None:
            continue
        if letter.kind == "d":
            arrows.append((i, i - 1, letter.name))
        else:
            arrows.append((i - 1, i, letter.name))
    vmap = {i: words_mod.vertex_at(pres, walk, i) for i in vertices}
    return WalkQuiver(vertices, tuple(arrows), vmap)


# -- index automorphisms -------------------------------------------------------


def pi_automorphisms(pres, walk, lo=None, hi=None, sigma=None, one=None):
    """The automorphisms pi_i for lo <= i <= hi, with pi_0 the identity.

    For an arrow i -> j of the walk quiver carrying the arrow a, they satisfy
    pi_j = sigma_a * pi_i.  ``sigma``/``one`` may supply any group-like values
    (supporting ``*`` and ``.inverse()``) keyed by arrow name; by default the
    presentation's Frobenius powers are used.
    """
    if walk.shape == "finite":
        lo = 0 if lo is None else lo
        hi = len(walk.letters) if hi is None else hi
    elif lo is None or hi is None:
        raise PreconditionViolated("infinite walks need an explicit index window")
    if sigma is None:
        sigma = lambda name: pres.sigma(name)
    if one is None:
        one = Aut(pres.field, 0)
    pi = {0: one}
    for i in range(1, hi + 1):
        letter = walk.letter_at(i)
        s = sigma(letter.name)
        pi[i] = s.inverse() * pi[i - 1] if letter.kind == "d" else s * pi[i - 1]
    for i in range(0, lo, -1):
        letter = walk.letter_at(i)  # connects i-1 and i
        s = sigma(letter.name)
        pi[i - 1] = s * pi[i] if letter.kind == "d" else s.inverse() * pi[i]
    return {i: pi[i] for i in range(lo, hi + 1)}


# -- parameter ring descriptors -------------------------------------------------


ASYM_STRING = "asym_string"
SYM_STRING = "sym_string"
ASYM_BAND = "asym_band"
SYM_BAND = "sym_band"


class RwSpec(NamedTuple):
    kind: str
    word: Word
    walk: Word
    Jw: tuple
    pi: dict
    tau: Aut | None = None
    rho: Aut | None = None
    q_x: object = None  # twisted quadratic acted by x (sym string / sym band)
    q_y: object = None  # twisted quadratic acted by y (sym band)
    k: int | None = None  # sym string arm length
    p: int | None = None  # sym band arm lengths
    r: int | None = None
    n: int | None = None  # length (strings) or half/full period (bands)


class WalkShape(NamedTuple):
    """What a descriptor fixes before any parameter data: its kind, word,
    canonical walk, index set J_w and, when symmetric, its symmetric form."""

    kind: str
    word: Word
    walk: Word
    Jw: tuple
    form: object = None


def walk_shape(pres, desc):
    """The shape part of ``rw_descriptor``: its preconditions, the canonical
    walk (which checks end-admissibility) and J_w."""
    w = desc.word
    if not words_mod.is_relation_admissible(pres, w):
        raise PreconditionViolated("word is not relation-admissible")
    if w.shape == "zper" and not words_mod.band_shape(w.period).primitive:
        raise PreconditionViolated("band block must have minimal period")
    walk = canonical_walk(pres, w)
    form = symmetric_decomposition(pres, desc) if desc.symmetric else None
    if isinstance(desc, StringDescriptor):
        if form is None:
            return WalkShape(ASYM_STRING, w, walk, tuple(range(len(w.letters) + 1)))
        return WalkShape(SYM_STRING, w, walk, tuple(range(form.k + 1)), form)
    if form is None:
        return WalkShape(ASYM_BAND, w, walk, tuple(range(len(w.period))))
    return WalkShape(SYM_BAND, w, walk, tuple(range(-form.p, form.r + 1)), form)


def rw_descriptor(pres, desc):
    """Parameter-ring data for a string or band descriptor."""
    kind, w, walk, Jw, form = walk_shape(pres, desc)
    if kind == ASYM_STRING:
        return RwSpec(kind, w, walk, Jw, pi_automorphisms(pres, walk), n=len(w.letters))
    if kind == SYM_STRING:
        k = form.k
        pi = pi_automorphisms(pres, walk)
        tau = pi[k].inverse() * pres.sigma(form.s) * pi[k]
        q_x = twist_quadratic(pi[k].inverse(), pres.quadratic(form.s))
        return RwSpec(kind, w, walk, Jw, pi, tau=tau, q_x=q_x, k=k, n=len(w.letters))
    if kind == ASYM_BAND:
        m = len(w.period)
        pi = pi_automorphisms(pres, walk, lo=-1, hi=m)
        return RwSpec(kind, w, walk, Jw, pi, tau=pi[m].inverse() * pi[0], n=m)
    p, r = form.p, form.r
    pi = pi_automorphisms(pres, walk, lo=-p - 1, hi=r + 1)
    rho = pi[r].inverse() * pres.sigma(form.s) * pi[r]
    tau = pi[-p].inverse() * pres.sigma(form.t) * pi[-p]
    q_x = twist_quadratic(pi[r].inverse(), pres.quadratic(form.s))
    q_y = twist_quadratic(pi[-p].inverse(), pres.quadratic(form.t))
    return RwSpec(
        kind, w, walk, Jw, pi, tau=tau, rho=rho, q_x=q_x, q_y=q_y, p=p, r=r, n=p + r + 1,
    )


def reduce_index(spec, i):
    """(j, z) with j in J_w and b_i = b_j * z for a unit monomial z.

    z is a tuple over {'x','x-1','y','y-1'}; acting on the left of a vector
    it is applied right to left.
    """
    if spec.kind == ASYM_STRING:
        return i, ()
    if spec.kind == SYM_STRING:
        if i <= spec.k:
            return i, ()
        return spec.n - i, ("x",)
    if spec.kind == ASYM_BAND:
        m = spec.n
        j = i % m
        l = (i - j) // m
        if l == 0:
            return j, ()
        gen = "x-1" if l > 0 else "x"
        return j, (gen,) * abs(l)
    # symmetric band: alternating monomials z_l with
    #   b_j z_l = b_{l n + j}          (l even)
    #   b_j z_l = b_{l n + r - p - j}  (l odd)
    nn = spec.n
    l = (i + spec.p) // nn
    if l % 2 == 0:
        j = i - l * nn
    else:
        j = l * nn + spec.r - spec.p - i
    return j, _alternating_monomial(l)


def _alternating_monomial(l):
    if l == 0:
        return ()
    out = []
    gens = ("x", "y") if l > 0 else ("y", "x")
    for idx in range(abs(l)):
        out.append(gens[idx % 2])
    return tuple(reversed(out))


# -- parameter modules ----------------------------------------------------------


class RwModule(NamedTuple):
    """A finite-dimensional module over the parameter ring, given by matrices.

    dim: K-dimension; lam: the matrix of the x-action (strings/asym bands) or
    the y-action (symmetric bands); phi: the x-action of a symmetric band.
    """

    spec: RwSpec
    dim: int
    lam: Matrix | None = None
    phi: Matrix | None = None


def make_rw_module(spec, dim=None, lam=None, phi=None):
    if spec.kind == ASYM_STRING:
        if dim is None:
            dim = lam.nrows if lam is not None else 1
        return RwModule(spec, dim)
    if spec.kind == SYM_STRING:
        if lam is None:
            raise InvalidParameterMatrix("symmetric string parameter needs a matrix")
        if not spec.q_x.is_root_matrix(lam):
            raise InvalidParameterMatrix("matrix does not satisfy the twisted quadratic")
        return RwModule(spec, lam.nrows, lam=lam)
    if spec.kind == ASYM_BAND:
        if lam is None:
            raise InvalidParameterMatrix("band parameter needs a matrix")
        if not lam.is_invertible():
            raise InvalidParameterMatrix("band parameter must be invertible")
        return RwModule(spec, lam.nrows, lam=lam)
    if lam is None or phi is None:
        raise InvalidParameterMatrix("symmetric band parameter needs two matrices")
    if lam.nrows != phi.nrows:
        raise InvalidParameterMatrix("the two parameter matrices must have equal size")
    if not spec.q_y.is_root_matrix(lam):
        raise InvalidParameterMatrix("y-matrix does not satisfy its twisted quadratic")
    if not spec.q_x.is_root_matrix(phi):
        raise InvalidParameterMatrix("x-matrix does not satisfy its twisted quadratic")
    return RwModule(spec, lam.nrows, lam=lam, phi=phi)


def _generator_actions(module):
    """gen -> the left action of that ring generator on a row vector of the
    module.  The parameter matrices are fixed for the module, so an inverse
    generator inverts its matrix on first use and keeps the inverse."""
    spec = module.spec
    if spec.kind == SYM_BAND:
        pairs = {"x": (spec.rho, module.phi), "y": (spec.tau, module.lam)}
    else:
        pairs = {"x": (spec.tau, module.lam)}
    inverses = {}

    def act(gen, v):
        if gen.endswith("-1"):
            if gen not in inverses:
                aut, mat = pairs[gen[:-2]]
                inverses[gen] = (aut.inverse(), mat.inverse())
            aut, mat = inverses[gen]
            return aut(mat.apply_row(list(v)))
        aut, mat = pairs[gen]
        return mat.apply_row(list(aut(tuple(v))))

    return act


def monomial_action(act, monomial, v):
    """Apply a monomial (tuple of generators, leftmost applied last) through
    the actions ``act`` of ``_generator_actions``."""
    for gen in reversed(monomial):
        v = act(gen, v)
    return tuple(v)


# -- module construction ---------------------------------------------------------


def _walk_rules(pres, walk, i, arrow):
    """How ``arrow`` acts on the generator at index i: list of (coeff, index).

    Empty list encodes the zero action; coefficients are 1 for quiver arrows
    and (beta, -gamma) for the special-loop fallback.
    """
    here = walk.letter_at(i)
    nxt = walk.letter_at(i + 1)
    on_here = here is not None and here.name == arrow
    on_next = nxt is not None and nxt.name == arrow
    if on_here and here.kind == "d":
        return [(None, i - 1)]
    if on_next and nxt.kind == "i":
        return [(None, i + 1)]
    if arrow not in pres.special:
        return []
    q = pres.quadratic(arrow)
    if on_here:  # here is arrow^-1
        return [(q.beta, i), (-q.gamma, i - 1)]
    if on_next:  # the next letter is arrow, direct
        return [(q.beta, i), (-q.gamma, i + 1)]
    raise NotEndAdmissible(f"no action rule for {arrow!r} at index {i}")


def build_module(pres, spec, module):
    """M(C_w) (x) V for the parameter module V = ``make_rw_module(spec, ...)``.

    Basis at each vertex: pairs (i, c) with i in J_w ascending and c a
    V-coordinate; every arrow matrix is assembled from the walk rules, with
    out-of-range generators folded back into J_w through unit monomials.
    """
    from .reps import Representation

    field = pres.field
    m = module.dim
    act = _generator_actions(module)
    J = sorted(spec.Jw)
    word = spec.word
    basis = {v: [] for v in pres.vertices}
    for i in J:
        v = words_mod.vertex_at(pres, word, i)
        for c in range(m):
            basis[v].append((i, c))
    index = {v: {bc: pos for pos, bc in enumerate(lst)} for v, lst in basis.items()}
    dims = {v: len(lst) for v, lst in basis.items()}

    mats = {}
    for arrow in pres.arrow_names:
        info = pres.arrows[arrow]
        rows = [[field.zero() for _ in range(dims[info.target])] for _ in range(dims[info.source])]
        for i in J:
            if words_mod.vertex_at(pres, word, i) != info.source:
                continue
            for coeff, h in _walk_rules(pres, spec.walk, i, arrow):
                if coeff is not None and not coeff:
                    continue
                j, z = reduce_index(spec, h)
                ch = spec.pi[h].inverse()(coeff) if coeff is not None else None
                for c in range(m):
                    e = [field.zero()] * m
                    e[c] = field.one()
                    if ch is not None:
                        e = [ch * x for x in e]
                    vec = monomial_action(act, z, e) if z else tuple(e)
                    vec = spec.pi[j](tuple(vec))
                    row = rows[index[info.source][(i, c)]]
                    for d, val in enumerate(vec):
                        if val:
                            col = index[info.target][(j, d)]
                            row[col] = row[col] + val
        mats[arrow] = Matrix(field, rows, dims[info.source], dims[info.target])
    labels = {v: list(lst) for v, lst in basis.items()}
    return Representation(pres, dims, mats, labels=labels)


def _irreducible_polys_over(field, max_deg):
    """Monic irreducibles over K of degree <= max_deg (root test; degree <= 3)."""
    if max_deg > 3:
        raise PreconditionViolated("band parameter helper only goes up to cubics")
    out = []
    elems = list(field.elements())
    for deg in range(1, max_deg + 1):
        for code in range(field.q ** deg):
            coeffs = []
            c = code
            for _ in range(deg):
                coeffs.append(field.el(c % field.q))
                c //= field.q
            poly = coeffs + [field.one()]
            if deg == 1:
                out.append(poly)
                continue
            if all(_poly_value(field, poly, x) for x in elems):
                out.append(poly)
    return out


def _poly_value(field, poly, x):
    acc = field.zero()
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _poly_power(field, poly, k):
    acc = [field.one()]
    for _ in range(k):
        out = [field.zero()] * (len(acc) + len(poly) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(poly):
                out[i + j] = out[i + j] + a * b
        acc = out
    return acc


def _companion(field, poly):
    m = len(poly) - 1
    rows = []
    for i in range(m - 1):
        rows.append([field.one() if j == i + 1 else field.zero() for j in range(m)])
    rows.append([-poly[j] for j in range(m)])
    return Matrix(field, rows, m, m)


def indecomposable_band_parameters(spec, max_dim):
    """Invertible parameter matrices giving indecomposable band inputs.

    With a trivial twist these are companion matrices of q(x)^k for monic
    irreducible q != x (the classical Laurent-ring indecomposables); with a
    nontrivial twist, the 1x1 units are emitted and larger parameters are
    left to the caller.
    """
    if spec.kind != ASYM_BAND:
        raise PreconditionViolated("band parameters only exist for asymmetric bands")
    field = spec.q_x.field if spec.q_x else spec.tau.field
    out = []
    if not spec.tau.is_identity:
        for x in field.elements():
            if x:
                out.append(Matrix(field, [[x]]))
                break
        return out
    for poly in _irreducible_polys_over(field, min(max_dim, 3)):
        if not poly[0]:
            continue  # q = x is not invertible
        deg = len(poly) - 1
        k = 1
        while deg * k <= max_dim:
            out.append(_companion(field, _poly_power(field, poly, k)))
            k += 1
    return out
