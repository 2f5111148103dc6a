"""Monic quadratics x^2 - beta*x + gamma in a twisted polynomial ring K[x;sigma].

Covers normality/centrality tests, the four-way semisimplicity
classification with explicit matrix models for the simple modules of the
quotient ring, and conjugation by a field automorphism.
Whether a matrix models the x-action is tested on K-entries
(``is_root_matrix``, for parameter matrices) or on the packed prime matrix
of X (``is_root_prime``, which module loading runs).
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import Aut, Field
from .linalg import Matrix, mat_add, mat_mul, scalar_block_matrix

IRREDUCIBLE = 1
MATRIX_RING = 2
SPLIT = 3
NON_SEMISIMPLE = 4


class _QuadraticFields(NamedTuple):
    field: Field
    sigma: Aut
    beta: object
    gamma: object


class SkewQuadratic(_QuadraticFields):
    """x^2 - beta*x + gamma in K[x;sigma], monic by construction."""

    # typing.NamedTuple forbids __new__ in its own body: the subclass
    # normalises beta and gamma to field elements
    __slots__ = ()

    def __new__(cls, field, sigma, beta, gamma):
        return super().__new__(cls, field, sigma, field.el(beta), field.el(gamma))

    def value(self, lam):
        """Evaluate at a scalar: sigma(lam)*lam - beta*lam + gamma."""
        lam = self.field.el(lam)
        return self.sigma(lam) * lam - self.beta * lam + self.gamma

    def matrix_residue(self, m):
        """sigma(M) @ M - beta*M + gamma*I; zero iff M models the x-action."""
        ident = Matrix.identity(self.field, m.nrows)
        return (self.sigma(m) @ m) - m.scale(self.beta) + ident.scale(self.gamma)

    def is_root_matrix(self, m):
        return self.matrix_residue(m).is_zero()

    def is_root_prime(self, x, d):
        """``is_root_matrix(M)`` for M on K^d given by the packed prime matrix
        x of X: v -> sigma(v) @ M.  For every v, X(X(v)) - X(sigma^-1(beta)
        sigma(v)) + gamma sigma^2(v) = sigma^2(v) @ residue(M), so M is a
        root exactly when X o X + gamma sigma^2 = X o (sigma^-1(beta) sigma)
        as F_p-linear maps."""
        f, k, p = self.field, self.sigma.k, self.field.p
        lhs = mat_add(mat_mul(x, x, p), scalar_block_matrix(f, self.gamma, d, 2 * k), p)
        beta = self.sigma.inverse()(self.beta)
        return lhs == mat_mul(scalar_block_matrix(f, beta, d, k), x, p)

    def __repr__(self):
        return f"x^2 - ({self.beta!r})x + ({self.gamma!r}) in K[x;{self.sigma!r}]"


class QuadraticReport(NamedTuple):
    is_normal: bool
    is_central: bool
    is_nonsingular: bool
    case: int
    factorization: tuple | None
    simple_modules: list

    @property
    def is_semisimple(self):
        return self.case in (IRREDUCIBLE, MATRIX_RING, SPLIT)


def _commutes_with_sigma_power(field, sigma, c, power):
    """sigma^power(lam) * c == c * lam for all lam (checked on a generator)."""
    if not c:
        return True
    aut = Aut(field, sigma.k * power)
    g = field.multiplicative_generator()
    # both sides are multiplicative in lam, so a generator suffices
    return aut(g) * c == c * g if field.q > 2 else True


def factorizations(q):
    """All pairs (eta, mu) with q = (x - eta)(x - mu), by exhaustive search.

    Expanding gives x^2 - (eta + sigma(mu))x + eta*mu.
    """
    out = []
    for mu in q.field.elements():
        eta = q.beta - q.sigma(mu)
        if eta * mu == q.gamma:
            out.append((eta, mu))
    return out


def classify_quadratic(q):
    """Normality, centrality, non-singularity and the four-case split."""
    f = q.field
    is_normal = (
        q.sigma(q.beta) == q.beta
        and q.sigma(q.gamma) == q.gamma
        and _commutes_with_sigma_power(f, q.sigma, q.beta, 1)
        and _commutes_with_sigma_power(f, q.sigma, q.gamma, 2)
    )
    is_central = is_normal and (q.sigma.k * 2) % f.n == 0
    is_nonsingular = bool(q.gamma)
    facs = factorizations(q)

    def eta_central(eta):
        return _commutes_with_sigma_power(f, q.sigma, eta, 1) if eta else True

    if not facs:
        case = IRREDUCIBLE
        chosen = None
        simples = [Matrix(f, [[0, 1], [-q.gamma, q.beta]])]
    else:
        noncentral = [fm for fm in facs if not eta_central(fm[0])]
        if noncentral:
            case = MATRIX_RING
            chosen = noncentral[0]
            simples = [Matrix(f, [[chosen[0]]])]
        else:
            distinct = [fm for fm in facs if fm[0] != fm[1]]
            if distinct:
                case = SPLIT
                chosen = distinct[0]
                eta, mu = chosen
                simples = [Matrix(f, [[(q.sigma * q.sigma)(mu)]]), Matrix(f, [[eta]])]
            else:
                case = NON_SEMISIMPLE
                chosen = facs[0]
                simples = []
    return QuadraticReport(is_normal, is_central, is_nonsingular, case, chosen, simples)


def twist_quadratic(phi, q):
    """Conjugate by phi: x^2 - phi(beta)x + phi(gamma) in K[x; phi sigma phi^-1]."""
    sigma = phi * q.sigma * phi.inverse()
    return SkewQuadratic(q.field, sigma, phi(q.beta), phi(q.gamma))
