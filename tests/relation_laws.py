"""Relation-calculus laws that the tests assert: the one-relation laws and
the symmetric-band rewriting identity, plus the K-dimension of a subspace
after a K-stability check.  Each check raises AssertionError when a law
fails and returns True otherwise.
"""

from clannish.errors import SpaceMismatch
from clannish.linalg import is_k_stable, k_dim


def check_one_relation_laws(x_rel, q, small, big):
    """For a q-bound relation with q normal and non-singular and U <= W:
    U /\\ XW == U /\\ X^-1 W and the two-term sum identity."""
    xi = x_rel.inverse()
    xw, xiw = x_rel.image(big), xi.image(big)
    xu, xiu = x_rel.image(small), xi.image(small)
    if small.intersect(xw) != small.intersect(xiw):
        raise AssertionError("one-relation law (i) fails")
    lhs = big.intersect(xu).sum(small.intersect(xw))
    rhs = big.intersect(xiu).sum(small.intersect(xiw))
    if lhs != rhs:
        raise AssertionError("one-relation law (ii) fails")
    return True


def check_symmetric_band_rewriting(x_rel, y_rel):
    """The four double-prime intersections of the pair rewriting identity agree,
    and the primed variants collapse likewise on finite-dimensional spaces."""
    combos = {}
    for name, rel in {
        "yx": y_rel.compose(x_rel),
        "xy": x_rel.compose(y_rel),
        "ixy": y_rel.inverse().compose(x_rel.inverse()),
        "iyx": x_rel.inverse().compose(y_rel.inverse()),
    }.items():
        lower, upper = rel.stable_pair()
        combos[name] = (lower, upper)
    tops = [
        combos["ixy"][1].intersect(combos["iyx"][1]),
        combos["ixy"][1].intersect(combos["xy"][1]),
        combos["yx"][1].intersect(combos["iyx"][1]),
        combos["yx"][1].intersect(combos["xy"][1]),
    ]
    if any(t != tops[0] for t in tops[1:]):
        raise AssertionError("double-prime rewriting identity fails")
    bottoms = [
        combos["ixy"][0].intersect(combos["iyx"][1]),
        combos["ixy"][0].intersect(combos["xy"][1]),
        combos["yx"][0].intersect(combos["iyx"][1]),
        combos["yx"][0].intersect(combos["xy"][1]),
        combos["ixy"][0].intersect(combos["iyx"][0]),
        combos["yx"][0].intersect(combos["xy"][0]),
    ]
    if any(b != bottoms[0] for b in bottoms[1:]):
        raise AssertionError("primed rewriting identity fails")
    return True


def k_dimension(field, space):
    if not is_k_stable(field, space):
        raise SpaceMismatch("subspace is not K-stable")
    return k_dim(field, space)
