import random

import pytest

from clannish.errors import PreconditionViolated
from clannish.fields import Aut, make_field
from clannish.linalg import Matrix
from clannish.skewquad import (
    IRREDUCIBLE,
    MATRIX_RING,
    NON_SEMISIMPLE,
    SPLIT,
    SkewQuadratic,
    classify_quadratic,
    factorizations,
    twist_quadratic,
)
from library_reference import (
    SingularQuadratic,
    inverse_quadratic,
    quotient_inverse,
    solve_unit_equation,
)


def brute_factorizations(q):
    """Independent oracle: scan all pairs (eta, mu) and expand."""
    out = []
    for eta in q.field.elements():
        for mu in q.field.elements():
            if eta + q.sigma(mu) == q.beta and eta * mu == q.gamma:
                out.append((eta, mu))
    return out


def quotient_multiply(q, a, b):
    """Multiply a0 + a1 x by b0 + b1 x in K[x;sigma]/(q), as (c0, c1).

    Uses x*lam = sigma(lam)*x and x^2 = beta x - gamma.
    """
    a0, a1 = a
    b0, b1 = b
    s = q.sigma
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * s(b0)
    x2 = a1 * s(b1)  # coefficient of x^2
    return (c0 - x2 * q.gamma, c1 + x2 * q.beta)


def test_classify_case1_gf2(F2):
    q = SkewQuadratic(F2, Aut(F2, 0), 1, 1)
    r = classify_quadratic(q)
    assert r.is_normal and r.is_central and r.is_nonsingular
    assert r.case == IRREDUCIBLE and r.is_semisimple
    assert r.factorization is None
    [m] = r.simple_modules
    assert m == Matrix(F2, [[0, 1], [1, 1]])
    assert brute_factorizations(q) == []


def test_classify_case2_gf4(F4):
    q = SkewQuadratic(F4, F4.frobenius(1), 0, 1)
    r = classify_quadratic(q)
    assert r.is_normal and r.is_central and r.is_nonsingular
    assert r.case == MATRIX_RING
    eta, mu = r.factorization
    assert eta == F4.one() and mu == F4.one()
    assert r.simple_modules == [Matrix(F4, [[1]])]
    assert set(brute_factorizations(q)) == set(factorizations(q))


def test_classify_case4_gf4(F4):
    q = SkewQuadratic(F4, Aut(F4, 0), 0, 1)
    r = classify_quadratic(q)
    assert r.case == NON_SEMISIMPLE and not r.is_semisimple
    eta, mu = r.factorization
    assert eta == mu == F4.one()


def test_classify_case3_gf5(F5):
    # x^2 - 4 over GF(5): beta 0, gamma -4 = 1
    q = SkewQuadratic(F5, Aut(F5, 0), 0, F5.el(-4))
    r = classify_quadratic(q)
    assert r.case == SPLIT
    assert {m.rows[0][0] for m in r.simple_modules} == {F5.el(2), F5.el(3)}
    assert set(factorizations(q)) == set(brute_factorizations(q))
    assert set(brute_factorizations(q)) == {(F5.el(3), F5.el(2)), (F5.el(2), F5.el(3))}


def test_classify_nonnormal_gf4(F4):
    q = SkewQuadratic(F4, F4.frobenius(1), 1, 1)
    assert not classify_quadratic(q).is_normal


def test_classify_agrees_with_brute_force_everywhere(F4, F5):
    for f in (F4, F5):
        for sigma in f.automorphisms():
            for beta in f.elements():
                for gamma in f.elements():
                    q = SkewQuadratic(f, sigma, beta, gamma)
                    r = classify_quadratic(q)
                    brute = brute_factorizations(q)
                    assert (r.factorization is None) == (not brute)
                    if r.factorization is not None:
                        eta, mu = r.factorization
                        assert (eta, mu) in brute
                        assert eta + sigma(mu) == beta and eta * mu == gamma


def test_simple_modules_satisfy_quadratic(F2, F4, F5):
    for f in (F2, F4, F5):
        for sigma in f.automorphisms():
            for beta in f.elements():
                for gamma in f.elements():
                    q = SkewQuadratic(f, sigma, beta, gamma)
                    r = classify_quadratic(q)
                    if not r.is_normal:
                        continue
                    for m in r.simple_modules:
                        assert q.is_root_matrix(m)


def test_quotient_inverse_examples(F2, F4, F5):
    q = SkewQuadratic(F4, F4.frobenius(1), 0, 1)
    assert quotient_inverse(q) == (F4.zero(), F4.one())  # x^-1 = x
    q2 = SkewQuadratic(F2, Aut(F2, 0), 1, 1)
    assert quotient_inverse(q2) == (F2.one(), F2.one())  # x^-1 = 1 + x
    q3 = SkewQuadratic(F5, Aut(F5, 0), 0, 4)
    assert quotient_inverse(q3) == (F5.zero(), F5.one())  # -4^{-1} = 1 mod 5


def test_quotient_inverse_multiplies_to_one(F4, F5, F9):
    for f in (F4, F5, F9):
        for sigma in f.automorphisms():
            for beta in f.elements():
                for gamma in f.elements():
                    if not gamma:
                        continue
                    q = SkewQuadratic(f, sigma, beta, gamma)
                    c0, c1 = quotient_inverse(q)
                    prod = quotient_multiply(q, (c0, c1), (f.zero(), f.one()))
                    assert prod == (f.one(), f.zero())


def test_quotient_inverse_singular(F2):
    with pytest.raises(SingularQuadratic):
        quotient_inverse(SkewQuadratic(F2, Aut(F2, 0), 1, 0))


def test_twist_examples(F4):
    q = SkewQuadratic(F4, Aut(F4, 0), F4.gen(), 1)
    same = twist_quadratic(Aut(F4, 0), q)
    assert (same.beta, same.gamma, same.sigma) == (q.beta, q.gamma, q.sigma)
    tw = twist_quadratic(F4.frobenius(1), q)
    assert tw.beta == F4.gen() + F4.one()
    assert tw.gamma == F4.one()
    assert tw.sigma == q.sigma  # conjugation in an abelian group


def test_twist_preserves_normality(F4, F9):
    rng = random.Random(11)
    for f in (F4, F9):
        elems = list(f.elements())
        for _ in range(20):
            q = SkewQuadratic(
                f, f.frobenius(rng.randrange(f.n)), rng.choice(elems), rng.choice(elems)
            )
            for phi in f.automorphisms():
                assert (
                    classify_quadratic(twist_quadratic(phi, q)).is_normal
                    == classify_quadratic(q).is_normal
                )


def test_inverse_quadratic_normal(F4, F5):
    for f in (F4, F5):
        for sigma in f.automorphisms():
            for beta in f.elements():
                for gamma in f.elements():
                    if not gamma:
                        continue
                    q = SkewQuadratic(f, sigma, beta, gamma)
                    if classify_quadratic(q).is_normal:
                        assert classify_quadratic(inverse_quadratic(q)).is_normal


def test_solve_unit_equation_examples(F3, F4, F5):
    q = SkewQuadratic(F5, Aut(F5, 0), 0, F5.el(-4))
    assert solve_unit_equation(Matrix(F5, [[2]]), q) == Matrix(F5, [[4]])
    q2 = SkewQuadratic(F4, F4.frobenius(1), 0, 1)
    assert solve_unit_equation(Matrix(F4, [[1]]), q2) == Matrix(F4, [[F4.gen()]])
    q3 = SkewQuadratic(F3, Aut(F3, 0), 0, F3.el(-1))
    assert solve_unit_equation(Matrix.identity(F3, 2), q3) == Matrix.identity(F3, 2).scale(F3.el(2))


def test_solve_unit_equation_verified_on_all_simples(F2, F4, F5, F9):
    for f in (F2, F4, F5, F9):
        for sigma in f.automorphisms():
            for beta in f.elements():
                for gamma in f.elements():
                    q = SkewQuadratic(f, sigma, beta, gamma)
                    r = classify_quadratic(q)
                    if not (r.is_normal and r.is_nonsingular and r.is_semisimple):
                        continue
                    for lam in r.simple_modules:
                        xi = solve_unit_equation(lam, q)
                        ident = Matrix.identity(f, lam.nrows)
                        lhs = lam @ xi + q.sigma(xi) @ (q.sigma(lam) - ident.scale(q.beta))
                        assert lhs == ident


def test_solve_unit_equation_precondition(F4):
    q = SkewQuadratic(F4, F4.frobenius(1), 0, 1)
    with pytest.raises(PreconditionViolated):
        solve_unit_equation(Matrix.zeros(F4, 1, 1), q)  # not a root
