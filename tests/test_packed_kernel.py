"""The packed Gauss-Jordan kernels, checked against the eliminations they
replaced.

``_reference_rref`` and ``_reference_left_nullspace`` are the former generic
``linalg.rref`` and ``linalg.left_nullspace``, kept here as the slow path.
The primes cover byte slots (3 to 13) and wider ones (17 up to 2**61 - 1).
``_reference_rref2`` is the former GF(2) loop, which tested every basis row
against each incoming row.  ``_reference_rref_ints`` is the former kernel for
every p, which back-substituted each new pivot into every basis row at once;
the two-pass kernel must give its rows, in its order.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clannish.linalg import (
    Subspace,
    _reduce,
    _rref2_ints,
    _rref_ints,
    _unpack,
    eliminate_block,
    left_nullspace,
    rref,
    slot_bits,
)

PRIMES = (3, 5, 7, 13, 17, 257)
LARGE_PRIMES = (65537, 2**31 - 1, 2**61 - 1)

# -- the list-based elimination ------------------------------------------------


def _reference_rref(rows, p):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    width = len(rows[0])
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


def _reference_left_nullspace(rows, p, width=None):
    m = len(rows)
    if width is None:
        width = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    _, red = _reference_rref(aug, p)
    return [r[width:] for r in red if not any(r[:width])]


# -- random matrices -----------------------------------------------------------


@st.composite
def _matrix(draw):
    """A prime and a matrix over it: unreduced and negative entries, zero and
    duplicate rows, dependent rows, often more rows than columns."""
    p = draw(st.sampled_from(PRIMES))
    width = draw(st.integers(1, 7))
    entry = st.integers(-2 * p, 2 * p) | st.sampled_from([0, 1, p - 1, p, -1])
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=12))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-p, p)), draw(st.integers(-p, p))
        r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append([a * x + b * y for x, y in zip(r1, r2)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    return p, rows


@given(_matrix())
def test_rref_matches_the_list_elimination(case):
    p, rows = case
    assert rref(rows, p) == _reference_rref(rows, p)


@given(_matrix(), st.data())
def test_left_nullspace_matches_the_list_elimination(case, data):
    p, rows = case
    assert left_nullspace(rows, p) == _reference_left_nullspace(rows, p)
    width = data.draw(st.integers(0, len(rows[0]) if rows else 0))
    assert left_nullspace(rows, p, width) == _reference_left_nullspace(rows, p, width)


@given(_matrix())
def test_subspace_basis_matches_the_list_elimination(case):
    p, rows = case
    if not rows:
        return
    space = Subspace(p, len(rows[0]), rows)
    pivots, red = _reference_rref(rows, p)
    assert space.pivots == tuple(pivots)
    assert space.rows == tuple(red)
    assert all(space.contains(r) for r in rows)


# -- the no-carry bound ----------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 251, 257, 65521, 65537, 2**31 - 1, 2**61 - 1])
def test_slot_width_leaves_room_for_one_step(p):
    bits = slot_bits(p)
    # one multiply-add between reduced rows reaches (p - 1) + (p - 1)**2
    assert (p - 1) + (p - 1) ** 2 < p * p < 2**bits
    assert bits % 8 == 0 and p * p >= 2 ** (bits - 8)
    assert (bits == 8) == (p <= 13)
    assert slot_bits(2) == 1


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_all_top_entries(p):
    """A tall matrix whose entries are all p - 1."""
    rows = [[p - 1] * 5 for _ in range(40)]
    assert rref(rows, p) == _reference_rref(rows, p) == ([0], [(1,) * 5])


def _carry_case(p):
    """Rows whose elimination overflows a slot unless rows are reduced in time.

    Each row e_i + (p - 1) e_n (0 < i < n) adds (p - 1)**2 to the last slot
    of the all-ones rows: of the first one as a basis row when e_i becomes a
    pivot row, and of the later ones while they are sifted.  n is large
    enough that these additions pass 2**slot_bits(p) - 1 without reduction.
    """
    n = 2 ** slot_bits(p) // (p - 1) ** 2 + 3
    ones = [1] * (n + 1)
    rows = [ones]
    for i in range(1, n):
        row = [0] * (n + 1)
        row[i], row[n] = 1, p - 1
        rows.append(row)
    return rows + [ones, [p - 1] * (n + 1), ones]


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_elimination_reduces_before_a_slot_carries(p):
    rows = _carry_case(p)
    assert rref(rows, p) == _reference_rref(rows, p)
    width = len(rows[0])
    assert left_nullspace(rows, p) == _reference_left_nullspace(rows, p)
    assert Subspace(p, width, rows).rows == tuple(_reference_rref(rows, p)[1])


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_kernel_takes_slots_up_to_the_square(p):
    """Input slots may hold (p - 1)**2, as negated rows in relation composites do."""
    rows = _carry_case(p)
    width = len(rows[0])
    bits = slot_bits(p)
    packed = [sum(((p - 1) * (x % p)) << (bits * j) for j, x in enumerate(r)) for r in rows]
    basis = _rref_ints(packed, p)
    negated = [[-x for x in r] for r in rows]
    pivots, red = _reference_rref(negated, p)
    assert sorted(basis) == pivots
    assert [_unpack(basis[q], p, width) for q in pivots] == red


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_clearing_reduces_at_the_exact_carry_bound(p):
    """Clearing one row takes the bound on its slot n + 1 to top * m, the
    one multiple of top = p - 1 in (2**bits - 1, 2**bits - 1 + top], and the
    slot holds that bound exactly: it starts at top**2, and each of the n
    seed rows e_q + top * e_{n+1} adds g * top with g = -v[q] mod p.  So the
    step that crosses 2**bits - 1 must reduce first; one that reduces only
    past 2**bits - 1 + top carries into slot n + 2.  Over GF(3) that is 63
    seed rows, and the incoming row has 1 in slots 0-62 and 4 in slot 64."""
    top, bits = p - 1, slot_bits(p)
    m = (2**bits - 1) // top + 1
    assert m % p  # so that the row keeps a pivot at n + 1
    whole, rest = divmod(m - top, top)
    gs = [top] * whole + [rest] * (rest > 0)
    n = len(gs)
    last = n + 1
    seed = [(q, (1 << (bits * q)) + (top << (bits * last))) for q in range(n)]
    row = sum((p - g) << (bits * q) for q, g in enumerate(gs)) + (top * top << (bits * last))
    basis = _rref_ints([row], p, seed)
    assert sorted(basis.items()) == [(q, 1 << (bits * q)) for q in (*range(n), last)]


# -- the GF(2) kernel ----------------------------------------------------------


def _reference_rref2(vals, seed=()):
    basis = dict(seed)
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


@st.composite
def _bit_rows(draw):
    """Two lists of rows of one width; narrow widths give dependent rows."""
    rows = st.lists(st.integers(0, 2 ** draw(st.integers(1, 40)) - 1), max_size=14)
    return draw(rows), draw(rows)


@given(_bit_rows())
def test_rref2_equals_the_scan_over_every_pivot(case):
    # the pivots, the rows and their order all agree, from no seed and from
    # a reduced one
    vals, seed_rows = case
    assert list(_rref2_ints(vals).items()) == list(_reference_rref2(vals).items())
    seed = _reference_rref2(seed_rows)
    got = _rref2_ints(vals, seed.items())
    assert list(got.items()) == list(_reference_rref2(vals, seed.items()).items())


# -- the two-pass kernel against the per-pivot one ------------------------------


def _reference_rref_ints(vals, p, seed=()):
    """Each new pivot back-substituted into every basis row as it arrives."""
    basis = dict(seed)
    if p == 2:
        pivots = sum(1 << q for q in basis)
        for v in vals:
            hit = v & pivots
            while hit:
                low = hit & -hit
                v ^= basis[low.bit_length() - 1]
                hit ^= low
            if not v:
                continue
            low = v & -v
            piv = low.bit_length() - 1
            for q, row in basis.items():
                if (row >> piv) & 1:
                    basis[q] = row ^ v
            basis[piv] = v
            pivots |= low
        return basis
    bits = slot_bits(p)
    mask = (1 << bits) - 1
    bound = dict.fromkeys(basis, p - 1)
    for v in vals:
        vb = (p - 1) ** 2
        for q, row in basis.items():
            f = ((v >> (bits * q)) & mask) % p
            if f:
                g = p - f
                rb = bound[q]
                if vb + g * rb > mask:
                    v, vb = _reduce(v, p, bits), p - 1
                    if vb + g * rb > mask:
                        row = basis[q] = _reduce(row, p, bits)
                        rb = bound[q] = p - 1
                v += g * row
                vb += g * rb
        if vb >= p:
            v = _reduce(v, p, bits)
        if not v:
            continue
        piv = ((v & -v).bit_length() - 1) // bits
        lead = (v >> (bits * piv)) & mask
        if lead != 1:
            v = _reduce(v * pow(lead, p - 2, p), p, bits)
        for q, row in basis.items():
            f = ((row >> (bits * piv)) & mask) % p
            if f:
                g = p - f
                rb = bound[q]
                if rb + g * (p - 1) > mask:
                    row, rb = _reduce(row, p, bits), p - 1
                basis[q] = row + g * v
                bound[q] = rb + g * (p - 1)
        basis[piv] = v
        bound[piv] = p - 1
    for q, rb in bound.items():
        if rb >= p:
            basis[q] = _reduce(basis[q], p, bits)
    return basis


KERNEL_PRIMES = (2,) + PRIMES


@st.composite
def _packed_case(draw):
    """A prime, an ambient dimension, packed rows with slots up to (p - 1)**2
    (many zero, dependent and repeated), a reduced seed (often empty), and
    rows in the seed's span."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    ambient = draw(st.integers(1, 9))
    bits = slot_bits(p)
    top = (p - 1) ** 2
    entry = st.sampled_from([0, 0, 0, 1, p - 1, top]) | st.integers(0, top)
    vector = st.lists(entry, min_size=ambient, max_size=ambient)

    def pack(row):
        return sum(x << (bits * j) for j, x in enumerate(row))

    def rows():
        out = [pack(r) for r in draw(st.lists(vector, max_size=10))]
        if out and draw(st.booleans()):
            # nonzero multiples of the rows drawn first
            out += [
                _reduce(_reduce(v, p, bits) * draw(st.integers(1, p - 1)), p, bits)
                for v in out[: len(out) // 2 + 1]
            ]
        return out

    vals = rows()
    seed = _reference_rref_ints(rows(), p) if draw(st.booleans()) else {}
    basis = [_unpack(row, p, ambient) for row in seed.values()]
    coeffs = st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
    inside = []
    for _ in range(draw(st.integers(0, 3))):
        c = draw(coeffs)
        column_sums = [sum(a * row[j] for a, row in zip(c, basis)) for j in range(ambient)]
        inside.append(pack([x % p for x in column_sums]))
    return p, ambient, vals, seed, inside


@given(_packed_case(), st.data())
def test_kernel_keeps_the_per_pivot_rows_in_order(case, data):
    p, ambient, vals, seed, _ = case
    width = data.draw(st.integers(0, ambient))
    ref = _reference_rref_ints(vals, p, seed.items())
    want = [(q, row) for q, row in ref.items() if q >= width]
    assert list(_rref_ints(vals, p, seed.items(), width).items()) == want
    if not width:
        assert list(_rref_ints(vals, p, seed.items()).items()) == want


@given(_packed_case(), st.data())
def test_eliminate_block_matches_the_per_pivot_kernel(case, data):
    p, ambient, vals, seed, _ = case
    width = data.draw(st.integers(0, ambient))
    shift = slot_bits(p) * width
    ref = _reference_rref_ints(vals, p, seed.items())
    tail = sorted(q for q in ref if q >= width)
    got = eliminate_block(p, vals, width, ambient - width, seed.items())
    assert got.pivots == tuple(q - width for q in tail)
    assert got.packed() == tuple(ref[q] >> shift for q in tail)


@given(_packed_case())
def test_spans_matches_the_per_pivot_kernel(case):
    p, ambient, vals, seed, inside = case
    space = Subspace._reduced(p, ambient, sorted(seed), [seed[q] for q in sorted(seed)])
    for rows in (vals, inside, inside + vals[:1], vals[:1] + inside):
        want = len(_reference_rref_ints(rows, p, seed.items())) == len(seed)
        assert space._spans(rows) == want
    assert space._spans(inside)
