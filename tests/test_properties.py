"""Property tests: the stable-image laws on random endo-relations, and the
dimension formula on random modules with planted summands.

The modules are drawn the way the benchmark workloads draw theirs: catalog
indecomposables until their K-dimensions sum to the target, then a random
invertible base change at every vertex.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from clannish.examples import BUNDLED, module_catalog
from clannish.fields import make_field
from clannish.filtration import multiplicities
from clannish.homalg import direct_sum
from clannish.linalg import Matrix, Subspace, expand_vector
from clannish.relations import SemilinearRelation, check_stable_image_laws
from clannish.reps import Representation
from clannish.words import word_key
from relation_laws import k_dimension

# -- stable-image laws ---------------------------------------------------------


@st.composite
def _endo_relation(draw):
    """A sigma-semilinear relation on K^d over GF(2), GF(4) or GF(3): the
    span of random pairs (v, w) closed under (v, w) -> (lam v, sigma(lam) w)."""
    field = make_field(*draw(st.sampled_from(((2, 1), (2, 2), (3, 1)))))
    sigma = field.frobenius(draw(st.integers(0, field.n - 1)))
    d = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    elems = list(field.elements())
    scalars = [field.el([0] * j + [1]) for j in range(field.n)]
    rows = []
    for _ in range(draw(st.integers(1, 2 * d))):
        v = [rng.choice(elems) for _ in range(d)]
        w = [rng.choice(elems) for _ in range(d)]
        for lam in scalars:
            lv = expand_vector(field, [lam * x for x in v])
            rows.append(lv + expand_vector(field, [sigma(lam) * x for x in w]))
    return SemilinearRelation(field, sigma, d, d, Subspace(field.p, 2 * d * field.n, rows))


@settings(max_examples=40)
@given(_endo_relation(), _endo_relation())
def test_stable_image_laws_on_random_relations(rel, other):
    for r in (rel, rel.inverse()):
        lower, upper = r.stable_pair()
        assert check_stable_image_laws(r, lower, upper)
        assert lower <= upper
        # both are K-stable: k_dimension raises otherwise
        assert k_dimension(r.field, lower) <= k_dimension(r.field, upper)
    if (other.field, other.src) == (rel.field, rel.src):
        both = rel.compose(other)
        assert check_stable_image_laws(both)


# -- the dimension formula -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _catalog(name):
    return module_catalog(BUNDLED[name]())


def _random_sum(rng, catalog, kdim):
    """Catalog entries drawn at random until their K-dimensions sum to kdim."""
    picks = []
    budget = kdim
    while budget:
        entry = rng.choice([c for c in catalog if c[2].dim() <= budget])
        picks.append(entry)
        budget -= entry[2].dim()
    total = picks[0][2]
    for _, _, rep in picks[1:]:
        total = direct_sum(total, rep)
    return picks, total


def _random_conjugate(rng, rep):
    """rep after a random invertible base change at every vertex."""
    pres = rep.pres
    field = pres.field
    elems = list(field.elements())
    base = {}
    for v in pres.vertices:
        d = rep.dims[v]
        while True:
            cand = Matrix(field, [[rng.choice(elems) for _ in range(d)] for _ in range(d)], d, d)
            if cand.is_invertible():
                base[v] = cand
                break
    mats = {}
    for name in pres.arrow_names:
        info = pres.arrows[name]
        twist = pres.sigma(name)
        mats[name] = twist(base[info.source]).inverse() @ rep.mats[name] @ base[info.target]
    return Representation(pres, rep.dims, mats)


@settings(max_examples=30)
@given(st.sampled_from(sorted(BUNDLED)), st.integers(2, 8), st.integers(0, 2**32))
def test_dimension_formula_on_random_conjugates(name, kdim, seed):
    rng = random.Random(seed)
    picks, total = _random_sum(rng, _catalog(name), kdim)
    module = _random_conjugate(rng, total)
    assert module.check_relations()
    report = multiplicities(module)
    assert report.complete and report.checksum == module.dim() == kdim
    pres = module.pres
    planted = {}
    for desc, param, _ in picks:
        key = word_key(pres, desc.word)
        planted[key] = planted.get(key, 0) + param.dim
    assert {word_key(pres, d.word): f for d, _, f in report.entries} == planted
