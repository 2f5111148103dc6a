"""Seeded benchmark inputs with planted answers.

Every module is a direct sum of indecomposables from
``examples.module_catalog`` with an exact K-dimension, conjugated by a random
invertible base change at each vertex so that the arrow matrices are dense.
The summands drawn are recorded as the planted answer: the multiplicity of
each string/band word and the K-dimensions of the summands.  The same
(workload, seed) always gives byte-identical inputs.

Every request set plants the same summands, drawn once per workload from a
fixed stream; the seed draws a fresh base change for every module.  The cost
of a module depends mostly on its summands: one GP2 oracle module at
K-dimension 12 took 2.0 to 4.8 s across six summand draws and about 5%
apart across base changes of one draw.  With summands drawn per seed, or per
request set, the median set time moved with which sets a run reached, and
the spread between seeds was 15-19% (IQR / median).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from clannish import examples, homalg, serialize
from clannish.linalg import Matrix
from clannish.reps import Representation


@dataclass(frozen=True)
class Workload:
    command: str | None  # CLI subcommand, or None for the in-process library batch
    # (bundled presentation, constructor arguments, K-dimension of each module)
    presentations: tuple


WORKLOADS = {
    # Headline CLI command at its headline size, every bundled presentation.
    "cli-decompose": Workload(
        "decompose",
        (("E1", (), 10), ("GP2", (), 10), ("A4", (), 10), ("DIEUDONNE", (), 10)),
    ),
    # The oracle at its size limit: prime-field dimension 12.
    "cli-oracle": Workload(
        "oracle-check",
        (("E1", (), 6), ("GP2", (), 12), ("A4", (), 6), ("DIEUDONNE", (), 6)),
    ),
    # Odd characteristic, in process: the generic (unpacked) elimination path.
    "lib-oddchar": Workload(
        None,
        (("GP2", (3,), 8), ("DIEUDONNE", (3, 2), 8), ("E1", (3, 2), 8)),
    ),
}

# Request sets generated per seed.  A run executes them in order, one module
# per presentation each, and starts over if it gets through all of them.
SETS = 8


@dataclass(frozen=True)
class Request:
    presentation: str
    module: str  # canonical JSON of the module, presentation embedded
    dim: int
    multiplicities: dict  # compact word -> planted multiplicity
    summand_dims: tuple  # sorted K-dimensions of the planted summands


def presentation(name, args):
    return examples.BUNDLED[name](*args)


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
        total = homalg.direct_sum(total, rep)
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


def build(workload, seed):
    """SETS request sets for the workload, each one module per presentation."""
    spec = WORKLOADS[workload]
    mix = random.Random(f"{workload}/mix")
    rng = random.Random(f"{workload}/{seed}")
    planted = []
    for name, args, kdim in spec.presentations:
        catalog = examples.module_catalog(presentation(name, args))
        picks, total = _random_sum(mix, catalog, kdim)
        mult = {}
        for desc, param, _ in picks:
            word = serialize.word_to_compact(desc.word)
            mult[word] = mult.get(word, 0) + param.dim
        dims = tuple(sorted(rep.dim() for _, _, rep in picks))
        planted.append((name, kdim, total, mult, dims))
    sets = []
    for _ in range(SETS):
        requests = []
        for name, kdim, total, mult, dims in planted:
            module = _random_conjugate(rng, total)
            requests.append(
                Request(
                    presentation=name,
                    module=json.dumps(serialize.representation_to_json(module), sort_keys=True),
                    dim=kdim,
                    multiplicities=mult,
                    summand_dims=dims,
                )
            )
        sets.append(requests)
    return sets


def digest(sets):
    """sha256 of the inputs and their planted answers."""
    h = hashlib.sha256()
    for requests in sets:
        for req in requests:
            planted = [req.presentation, req.dim, sorted(req.multiplicities.items()), req.summand_dims]
            h.update(json.dumps(planted).encode())
            h.update(req.module.encode())
    return h.hexdigest()
