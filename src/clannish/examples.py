"""Bundled presentations used by the test-suite, docs and CLI demos."""

from __future__ import annotations

from .fields import make_field
from .presentation import ArrowInfo, validate


def one_loop_pair(p=2, n=2):
    """One vertex, ordinary loop a and special loop s with q = x^2 + 1.

    Both loops twist by Frobenius; the only zero relation is aa.
    """
    field = make_field(p, n)
    arrows = [
        ArrowInfo("a", "1", "1", 1 % n),
        ArrowInfo("s", "1", "1", 1 % n),
    ]
    return validate(
        field,
        ("1",),
        arrows,
        {"s": (0, 1)},
        [("a", "a")],
    )


def gelfand_ponomarev(p=2):
    """Two ordinary loops x, y with xy = yx = 0 and x^3 = y^3 = 0."""
    field = make_field(p, 1)
    arrows = [ArrowInfo("x", "1", "1", 0), ArrowInfo("y", "1", "1", 0)]
    return validate(
        field,
        ("1",),
        arrows,
        {},
        [("x", "y"), ("y", "x"), ("x", "x", "x"), ("y", "y", "y")],
    )


def alternating_group_quotient():
    """Two vertices, arrows a: 1->2, b: 2->1, loop c at 1, special loop s at 2.

    Over GF(4) with the Frobenius twist on b, c, s; relations
    ab, ac, ba, cb, cc; q_s = x^2 + 1.
    """
    field = make_field(2, 2)
    arrows = [
        ArrowInfo("a", "1", "2", 0),
        ArrowInfo("b", "2", "1", 1),
        ArrowInfo("c", "1", "1", 1),
        ArrowInfo("s", "2", "2", 1),
    ]
    return validate(
        field,
        ("1", "2"),
        arrows,
        {"s": (0, 1)},
        [("a", "b"), ("a", "c"), ("b", "a"), ("c", "b"), ("c", "c")],
    )


def frobenius_pair(p=2, n=2):
    """Loops F and V with FV = VF = 0, twisting by Frobenius and its inverse."""
    field = make_field(p, n)
    arrows = [
        ArrowInfo("F", "1", "1", 1 % n),
        ArrowInfo("V", "1", "1", (n - 1) % n),
    ]
    return validate(
        field,
        ("1",),
        arrows,
        {},
        [("F", "V"), ("V", "F")],
    )


BUNDLED = {
    "E1": one_loop_pair,
    "GP2": gelfand_ponomarev,
    "A4": alternating_group_quotient,
    "DIEUDONNE": frobenius_pair,
}


def module_catalog(pres, max_string_len=4, max_band_period=4, max_param_dim=2):
    """Bundled (descriptor, module) samples with indecomposable parameters.

    Strings get the parameter K (asymmetric) or each simple module of the
    twisted quadratic (symmetric); asymmetric bands get the classical
    companion-matrix parameters when untwisted and a unit otherwise;
    symmetric bands get pairs of simples of matching size where at least one
    side acts irreducibly.
    """
    from .skewquad import classify_quadratic
    from .walks import (
        build_module,
        indecomposable_band_parameters,
        make_rw_module,
        rw_descriptor,
    )
    from .words import enumerate_bands, enumerate_strings

    out = []
    for desc in enumerate_strings(pres, max_string_len):
        spec = rw_descriptor(pres, desc)
        if desc.symmetric:
            for simple in classify_quadratic(spec.q_x).simple_modules:
                module = make_rw_module(spec, lam=simple)
                out.append((desc, module, build_module(pres, spec, module)))
        else:
            module = make_rw_module(spec, dim=1)
            out.append((desc, module, build_module(pres, spec, module)))
    for desc in enumerate_bands(pres, max_band_period):
        spec = rw_descriptor(pres, desc)
        if desc.symmetric:
            lams = classify_quadratic(spec.q_y).simple_modules
            phis = classify_quadratic(spec.q_x).simple_modules
            for lam in lams:
                for phi in phis:
                    if lam.nrows != phi.nrows:
                        continue
                    if lam.nrows > 1 and not (lam.nrows == 2 or phi.nrows == 2):
                        continue
                    module = make_rw_module(spec, lam=lam, phi=phi)
                    out.append((desc, module, build_module(pres, spec, module)))
        else:
            for lam in indecomposable_band_parameters(spec, max_param_dim):
                module = make_rw_module(spec, lam=lam)
                out.append((desc, module, build_module(pres, spec, module)))
    return out
