"""Library-level helpers that only the tests call.

An isomorphism test for any two modules, inversion of x in K[x;sigma]/(q),
the inverse quadratic, the matrix unit equation of band functors, shifts,
concatenation and star-position norms of words, the canonical orientation of
a string word, the twist of a stretch of walk letters and the module of a
finite walk.  The tests compare library output with these, or check the
paper's identities on them; no command, acceptance criterion or benchmark
workload runs them, so they are kept here and not in ``clannish``.
"""

import random

from clannish.errors import (
    ClannishError,
    NonConcatenable,
    NotEndAdmissible,
    NotStarLetter,
    PreconditionViolated,
)
from clannish.fields import Aut
from clannish.homalg import SEED, _indec_isomorphic, brute_decompose, hom_space
from clannish.linalg import Matrix, _rref_ints, combine
from clannish.skewquad import SkewQuadratic, classify_quadratic
from clannish.walks import (
    ASYM_STRING,
    RwSpec,
    build_module,
    make_rw_module,
    pi_automorphisms,
    walk_star,
)
from clannish.words import (
    Word,
    _horizon,
    invert_word,
    is_end_admissible,
    prefix_inverse,
    suffix,
    word_key,
)


class SingularQuadratic(ClannishError):
    """``quotient_inverse`` and ``inverse_quadratic`` met a singular
    quadratic (gamma = 0)."""


# -- isomorphism of modules -------------------------------------------------------


def are_isomorphic(m1, m2):
    """Isomorphism test: 64 random morphisms searched for an invertible one,
    then matched decompositions."""
    if m1.pres is not m2.pres or m1.dims != m2.dims:
        return False
    if m1.dim() == 0:
        return True
    h12 = hom_space(m1, m2)
    if h12.dim == 0:
        return False
    rng = random.Random(SEED)
    p = m1.field.p
    for _ in range(64):
        coeffs = [rng.randrange(p) for _ in range(h12.dim)]
        if not any(coeffs):
            continue
        phi = _combine_morphisms(h12, coeffs, p)
        if all(len(_rref_ints(mat, p)) == len(mat) for mat in phi.values()):
            return True
    # above BRUTE_LIMIT brute_decompose raises TooLarge rather than guess
    return _match_summands(brute_decompose(m1), brute_decompose(m2))


def _combine_morphisms(hs, coeffs, p):
    """sum(c * basis morphism), row by row of each vertex's prime matrix."""
    return {
        v: [combine(coeffs, rows, p) for rows in zip(*(b[v] for b in hs.basis))]
        for v in hs.source.dims
    }


def _match_summands(parts1, parts2):
    if len(parts1) != len(parts2):
        return False
    remaining = list(parts2)
    for a in parts1:
        hit = next((i for i, b in enumerate(remaining) if _indec_isomorphic(a, b)), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


# -- skew quadratics --------------------------------------------------------------


def quotient_inverse(q):
    """Coefficients (c0, c1) with x^{-1} = c0 + c1*x in K[x;sigma]/(q)."""
    if not q.gamma:
        raise SingularQuadratic("x is not invertible when the constant term vanishes")
    ginv = q.gamma.inverse()
    return ginv * q.beta, -ginv


def inverse_quadratic(q):
    """x^2 - gamma^{-1} beta x + gamma^{-1} in K[x; sigma^{-1}]."""
    if not q.gamma:
        raise SingularQuadratic("no inverse quadratic for a singular one")
    ginv = q.gamma.inverse()
    return SkewQuadratic(q.field, q.sigma.inverse(), ginv * q.beta, ginv)


def solve_unit_equation(lam_matrix, q):
    """A matrix X with lam_matrix @ X + sigma(X) @ (sigma(lam_matrix) - beta*I) = I.

    Requires q normal, non-singular and semisimple, and lam_matrix a root of
    the quadratic matrix identity.  The output is verified by substitution.
    """
    f = q.field
    report = classify_quadratic(q)
    if not (report.is_normal and report.is_nonsingular and report.is_semisimple):
        raise PreconditionViolated("quadratic must be normal, non-singular and semisimple")
    if not q.is_root_matrix(lam_matrix):
        raise PreconditionViolated("matrix does not satisfy the quadratic identity")
    m = lam_matrix.nrows
    ident = Matrix.identity(f, m)
    two = f.one() + f.one()
    if f.p != 2:
        alpha = q.beta * q.beta - two * two * q.gamma
        ainv = alpha.inverse()
        nu, zeta = two * ainv, q.beta * ainv
        xi = q.sigma(lam_matrix).scale(nu) - ident.scale(zeta)
    elif q.beta:
        xi = ident.scale(q.beta.inverse())
    else:
        # char 2, beta 0: sigma has order 2 here, else q = (x + sqrt(gamma))^2
        g = f.multiplicative_generator()
        lam = g
        while q.sigma(lam) == lam:
            lam = lam * g
        c = lam * (q.sigma(lam) + lam).inverse()
        xi = lam_matrix.inverse().scale(c)
    lhs = (lam_matrix @ xi) + q.sigma(xi) @ (q.sigma(lam_matrix) - ident.scale(q.beta))
    if lhs != ident:
        raise PreconditionViolated("unit equation solution failed verification")
    return xi


# -- words ------------------------------------------------------------------------


def shift_word(pres, w, d):
    if w.shape != "zper":
        return w
    m = len(w.period)
    block = tuple(w.period[(d + j) % m] for j in range(m))
    return Word("zper", pres.head(block[0]), pres.sign(block[0]), (), block)


def concat_words(pres, u, w):
    """u then w; valid when u^-1 and w share head and have opposite signs."""
    if u.shape != "finite":
        raise NonConcatenable("left factor must be finite")
    ui = invert_word(pres, u)
    if ui.v0 != w.v0 or ui.eps != -w.eps:
        raise NonConcatenable("endpoint or sign mismatch")
    if w.shape == "finite":
        if not u.letters:
            return w
        return Word("finite", u.v0, u.eps, u.letters + w.letters)
    if w.shape == "right":
        if not u.letters:
            return w
        return Word("right", u.v0, u.eps, u.letters + w.letters, w.period)
    raise NonConcatenable("cannot concatenate onto a two-sided word")


def position_norm(pres, w, i):
    """Length of the longest common prefix of (w_{<=i-1})^{-1} and w_{>i}.

    None (infinite) when i is a symmetry.
    """
    letter = w.letter_at(i)
    if letter is None or not letter.is_star:
        raise NotStarLetter(f"position {i} does not hold a star letter")
    left = prefix_inverse(pres, w, i - 1)
    right = suffix(pres, w, i)
    for j in range(1, _horizon(left, right) + 1):
        x, y = left.letter_at(j), right.letter_at(j)
        if x is None or y is None or x != y:
            return j - 1
    return None


def canonical_string_word(pres, w):
    wi = invert_word(pres, w)
    return min(w, wi, key=lambda x: word_key(pres, x))


# -- walks ------------------------------------------------------------------------


def walk_sigma(pres, letters):
    """sigma_C of a finite stretch of walk letters (function composition)."""
    acc = Aut(pres.field, 0)
    for letter in letters:
        s = pres.sigma(letter.name)
        acc = acc * (s if letter.kind == "d" else s.inverse())
    return acc


def walk_module(pres, walk):
    """M(C) itself for a finite walk with end-admissible word, basis b_0..b_n:
    ``build_module`` on the walk's asymmetric string spec, parameter K.

    The zero relations are NOT imposed; they vanish automatically exactly
    when the word is relation-admissible.
    """
    word = walk_star(pres, walk)
    if not is_end_admissible(pres, word):
        raise NotEndAdmissible("walk module needs an end-admissible word")
    n = len(walk.letters)
    spec = RwSpec(ASYM_STRING, word, walk, tuple(range(n + 1)), pi_automorphisms(pres, walk), n=n)
    return build_module(pres, spec, make_rw_module(spec))
