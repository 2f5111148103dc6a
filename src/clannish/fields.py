"""Exact arithmetic in GF(p^n) together with its Frobenius automorphisms.

Elements are coefficient vectors over the prime field (lowest degree first)
modulo a monic irreducible polynomial.  Every automorphism of GF(p^n) is a
power of the Frobenius map x -> x^p; the ``Aut`` type is just that exponent.

Small fields get multiplication/log tables and a Frobenius table on first
use, which keeps the exact linear algebra elsewhere in the package fast.
"""

from __future__ import annotations

from .errors import FieldMismatch, NonPrime, ReducibleModulus

_TABLE_LIMIT = 1 << 16


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- polynomials over GF(p), coefficient tuples, lowest degree first --------

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_sub(a, b, p):
    m = max(len(a), len(b))
    return _trim(
        ((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(m)
    )


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = (a[-1] * inv_lb) % p
        k = len(a) - 1 - db
        q[k] = c
        for i in range(len(b)):
            a[k + i] = (a[k + i] - c * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return _trim(q), _trim(a)


def _poly_mod(a, m, p):
    return _poly_divmod(a, m, p)[1]


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _poly_powmod(a, e, m, p):
    r = (1,)
    a = _poly_mod(a, m, p)
    while e:
        if e & 1:
            r = _poly_mod(_poly_mul(r, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        e >>= 1
    return r


def is_irreducible(m, p):
    """Distinct-degree irreducibility test for a monic polynomial over GF(p)."""
    m = _trim(m)
    n = len(m) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = (0, 1)
    # x^(p^n) == x mod m
    t = x
    for _ in range(n):
        t = _poly_powmod(t, p, m, p)
    if _poly_mod(_poly_sub(t, x, p), m, p) != ():
        return False
    d = 2
    divisors = set()
    nn = n
    while d * d <= nn:
        if nn % d == 0:
            divisors.add(d)
            while nn % d == 0:
                nn //= d
        d += 1
    if nn > 1:
        divisors.add(nn)
    for q in divisors:
        t = x
        for _ in range(n // q):
            t = _poly_powmod(t, p, m, p)
        if len(_poly_gcd(_poly_sub(t, x, p), m, p)) > 1:
            return False
    return True


def least_irreducible(p, n):
    """The lexicographically least monic irreducible of degree n over GF(p).

    Candidates t^n + c_{n-1} t^{n-1} + ... + c_0 are compared by reading the
    coefficient word (c_{n-1}, ..., c_0) left to right.
    """
    for code in range(p ** n):
        coeffs = tuple((code // p ** j) % p for j in range(n)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise ReducibleModulus(f"no irreducible of degree {n} over GF({p})")  # unreachable


class FieldElement:
    """An element of a ``Field``, stored as a coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        self.field._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self.field._check(other)
        p = self.field.p
        return FieldElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self.field._check(other)
        return FieldElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElement(self.field, self.field._inv(self.coeffs))

    def __pow__(self, e):
        f = self.field
        if not self:
            if e < 0:
                raise ZeroDivisionError("inverse of zero field element")
            return f.one() if e == 0 else self
        e %= f.q - 1
        r = f.one().coeffs
        b = self.coeffs
        while e:
            if e & 1:
                r = f._mul(r, b)
            b = f._mul(b, b)
            e >>= 1
        return FieldElement(f, r)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                terms.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return "+".join(terms) if terms else "0"


class Aut:
    """A field automorphism: the Frobenius map raised to a fixed exponent."""

    __slots__ = ("field", "k")

    def __init__(self, field, k):
        self.field = field
        self.k = k % field.n

    def __call__(self, x):
        if isinstance(x, FieldElement):
            self.field._check(x)
            return FieldElement(self.field, self.field._frob(x.coeffs, self.k))
        if isinstance(x, (tuple, list)):
            return type(x)(self(v) for v in x)
        entrywise = getattr(x, "entrywise", None)
        if entrywise is not None:
            return entrywise(self)
        raise TypeError(f"cannot apply automorphism to {type(x).__name__}")

    def __mul__(self, other):
        # composition, other applied first
        if self.field is not other.field:
            raise FieldMismatch("automorphisms of different fields")
        return Aut(self.field, self.k + other.k)

    def inverse(self):
        return Aut(self.field, -self.k)

    def __pow__(self, e):
        return Aut(self.field, self.k * e)

    @property
    def is_identity(self):
        return self.k == 0

    def order(self):
        from math import gcd

        return self.field.n // gcd(self.field.n, self.k) if self.k else 1

    def __eq__(self, other):
        return isinstance(other, Aut) and self.field is other.field and self.k == other.k

    def __hash__(self):
        return hash((id(self.field), self.k))

    def __repr__(self):
        return f"Frob^{self.k}"


class Field:
    """GF(p^n) with explicit modulus and the cyclic group of Frobenius powers."""

    _cache = {}

    def __init__(self, p, n, modulus=None):
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if n < 1:
            raise ReducibleModulus("degree must be >= 1")
        if modulus is None:
            modulus = least_irreducible(p, n)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {n}")
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self._mul_table = None
        self._frob_table = None
        self._gen = None
        # prime-field matrices of multiplication and Frobenius (see linalg)
        self._mult_matrices = {}
        self._frob_matrices = {}

    # -- construction -------------------------------------------------------

    def el(self, x):
        """Coerce an int (base-p digits) or coefficient sequence to an element."""
        if isinstance(x, FieldElement):
            self._check(x)
            return x
        if isinstance(x, int):
            x %= self.q
            return FieldElement(self, tuple((x // self.p ** i) % self.p for i in range(self.n)))
        coeffs = tuple(int(c) % self.p for c in x)
        if len(coeffs) > self.n:
            coeffs = _poly_mod(coeffs, self.modulus, self.p)
        coeffs = coeffs + (0,) * (self.n - len(coeffs))
        return FieldElement(self, coeffs)

    def zero(self):
        return self.el(0)

    def one(self):
        return self.el(1)

    def gen(self):
        """The class of t (for n >= 2), or 1 for the prime field."""
        return self.el(1) if self.n == 1 else self.el([0, 1])

    def elements(self):
        for code in range(self.q):
            yield self.el(code)

    def frobenius(self, k=1):
        return Aut(self, k)

    def automorphisms(self):
        return [Aut(self, k) for k in range(self.n)]

    def multiplicative_generator(self):
        if self._gen is None:
            order = self.q - 1
            one = self.one().coeffs
            for code in range(1, self.q):
                g = self.el(code).coeffs
                acc, k = g, 1
                while acc != one:
                    acc = self._raw_mul(acc, g)
                    k += 1
                if k == order:
                    self._gen = self.el(g)
                    break
        return self._gen

    # -- internal arithmetic -------------------------------------------------

    def _check(self, x):
        if not isinstance(x, FieldElement) or x.field is not self:
            raise FieldMismatch("element of a different field")

    def _raw_mul(self, a, b):
        prod = _poly_mul(a, b, self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return red + (0,) * (self.n - len(red))

    def _build_tables(self):
        self._frob_table = {}
        for code_a in range(self.q):
            a = self.el(code_a).coeffs
            img = _poly_powmod(a, self.p, self.modulus, self.p)
            self._frob_table[a] = img + (0,) * (self.n - len(img))
        g = self.multiplicative_generator()
        exp = [self.one().coeffs]
        for _ in range(self.q - 2):
            exp.append(self._raw_mul(exp[-1], g.coeffs))
        self._exp = exp
        self._log = {c: i for i, c in enumerate(exp)}
        self._mul_table = True

    def _mul(self, a, b):
        if not any(a) or not any(b):
            return self.zero().coeffs
        if self.q <= _TABLE_LIMIT:
            if self._mul_table is None:
                self._build_tables()
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._raw_mul(a, b)

    def _inv(self, a):
        if self.q <= _TABLE_LIMIT:
            if self._mul_table is None:
                self._build_tables()
            return self._exp[(-self._log[a]) % (self.q - 1)]
        r = _poly_powmod(a, self.q - 2, self.modulus, self.p)
        return r + (0,) * (self.n - len(r))

    def _frob(self, a, k):
        k %= self.n
        if k == 0:
            return a
        if self.q <= _TABLE_LIMIT:
            if self._frob_table is None:
                self._build_tables()
            for _ in range(k):
                a = self._frob_table[a]
            return a
        r = _poly_powmod(a, self.p ** k, self.modulus, self.p)
        return r + (0,) * (self.n - len(r))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"


def make_field(p, n, modulus=None):
    """Build GF(p^n); with no modulus given, the deterministic least one is used.

    Fields are interned so that elements of two calls with equal data share
    arithmetic tables and automorphisms compare equal.
    """
    key = (p, n, tuple(modulus) if modulus is not None else None)
    f = Field._cache.get(key)
    if f is None:
        f = Field(p, n, modulus)
        # canonicalize through the explicit modulus so that the default and
        # explicit spellings of the same field share one object
        f = Field._cache.setdefault((p, n, f.modulus), f)
        Field._cache[key] = f
    return f
