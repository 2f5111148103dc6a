import pytest

from clannish.errors import FieldMismatch, NonPrime, ReducibleModulus
from clannish.fields import Aut, least_irreducible, make_field
from clannish.linalg import Matrix
from k_reference import SemilinearMap


def test_prime_field_trivial():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.automorphisms() == [Aut(f, 0)]
    assert f.one() + f.one() == f.zero()


def test_gf4_arithmetic():
    # modulus t^2 + t + 1, so w^2 = w + 1 and Frob(w) = w^2
    f = make_field(2, 2, [1, 1, 1])
    w = f.gen()
    assert w * w == w + f.one()
    assert f.frobenius(1)(w) == w + f.one()
    assert f.modulus == (1, 1, 1)


def test_gf9_frobenius_order_two():
    f = make_field(3, 2)
    g = f.multiplicative_generator()
    fr = f.frobenius(1)
    assert fr(fr(g)) == g
    assert fr(g) != g
    assert all(fr(x) == x ** 3 for x in f.elements())


def test_default_modulus_is_least():
    assert least_irreducible(2, 2) == (1, 1, 1)
    assert least_irreducible(2, 3) == (1, 1, 0, 1)
    assert least_irreducible(3, 2) == (1, 0, 1)


def test_field_errors():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])  # (t+1)^2
    with pytest.raises(FieldMismatch):
        make_field(2, 2).el(1) + make_field(3, 1).el(1)


def test_inverse_and_pow():
    f = make_field(5, 1)
    for x in f.elements():
        if x:
            assert x * x.inverse() == f.one()
            assert x ** 4 == f.one()


@pytest.mark.parametrize("p, n", [(2, 17), (257, 2)])
def test_arithmetic_above_the_table_limit(p, n):
    # past 2**16 elements there are no log or Frobenius tables: products,
    # inverses and Frobenius images are polynomial arithmetic mod the modulus
    import random

    f = make_field(p, n)
    assert f.q > 1 << 16
    rng = random.Random(f.q)
    fr = f.frobenius(1)
    for _ in range(20):
        a, b = f.el(rng.randrange(1, f.q)), f.el(rng.randrange(f.q))
        assert a * a.inverse() == f.one()
        assert fr(a * b) == fr(a) * fr(b)
        assert fr(a) == a ** p
        assert f.frobenius(n - 1)(fr(a)) == a
        image = a
        for _ in range(n):
            image = fr(image)
        assert image == a


def test_aut_group_laws():
    f = make_field(2, 3)
    a, b = f.frobenius(1), f.frobenius(2)
    assert (a * b).k == 0  # order 3
    assert a.inverse().k == 2
    assert a.inverse() == f.frobenius(1) ** -1
    g = f.gen()
    assert (a * b)(g) == a(b(g))
    assert a.order() == 3


def test_gf4_frob_composition_identity():
    f = make_field(2, 2)
    fr = f.frobenius(1)
    assert (fr * fr).is_identity
    assert fr.inverse() == fr


def test_semilinear_apply_examples():
    f = make_field(2, 2)
    w = f.gen()
    ident = SemilinearMap(Aut(f, 0), Matrix.identity(f, 1))
    assert ident.apply((w,)) == (w,)
    frob_one = SemilinearMap(f.frobenius(1), Matrix(f, [[1]]))
    assert frob_one.apply((w,)) == (w + f.one(),)
    zero = SemilinearMap(f.frobenius(1), Matrix.zeros(f, 2, 2))
    assert zero.apply((w, f.one())) == (f.zero(), f.zero())


def test_semilinearity_exhaustive():
    f = make_field(2, 2)
    m = Matrix(f, [[f.gen(), 1], [0, f.gen() + f.one()]])
    sl = SemilinearMap(f.frobenius(1), m)
    vecs = [(a, b) for a in f.elements() for b in f.elements()]
    for lam in f.elements():
        for v in vecs[:8]:
            scaled = tuple(lam * x for x in v)
            expect = tuple(sl.sigma(lam) * y for y in sl.apply(v))
            assert sl.apply(scaled) == expect


def test_semilinear_composition_law():
    f = make_field(3, 2)
    m = Matrix(f, [[1, f.gen()], [2, 0]])
    nmat = Matrix(f, [[f.gen(), 1], [1, 1]])
    outer = SemilinearMap(f.frobenius(1), m)
    inner = SemilinearMap(f.frobenius(1), nmat)
    comp = outer.after(inner)
    assert comp.sigma == f.frobenius(2)
    assert comp.matrix == outer.sigma(inner.matrix) @ outer.matrix
    for v in [(f.one(), f.gen()), (f.gen(), f.gen())]:
        assert comp.apply(v) == outer.apply(inner.apply(v))


def test_k_stable_subspace_dimension_divisibility(F4):
    # any K-stable prime-field subspace has F_p-dimension divisible by n
    from clannish.linalg import Subspace, expand_vector, is_k_stable

    f = F4
    w = f.gen()
    rows = [expand_vector(f, (f.one(), w)), expand_vector(f, (w, w * w))]
    space = Subspace(f.p, 4, rows)
    assert is_k_stable(f, space)
    assert space.dim % f.n == 0
    lop = Subspace(f.p, 4, [expand_vector(f, (f.one(), f.zero()))])
    assert not is_k_stable(f, lop)
