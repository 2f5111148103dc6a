"""Command-line front end.

Every command prints a single JSON document (pass --pretty for indentation)
and exits 0 on success; domain errors print {"error": {...}} and exit 1.
Presentation files may be given as a path or as "example:NAME" for one of
the bundled presentations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import filtration, homalg, serialize, walks, words
from .errors import ClannishError, InvalidInput
from .examples import BUNDLED
from .fields import make_field
from .presentation import algebra_dimension, enumerate_admissible_paths
from .skewquad import (
    IRREDUCIBLE,
    MATRIX_RING,
    NON_SEMISIMPLE,
    SPLIT,
    SkewQuadratic,
    classify_quadratic,
)

CASE_NAMES = {
    IRREDUCIBLE: "irreducible",
    MATRIX_RING: "matrix_ring",
    SPLIT: "split",
    NON_SEMISIMPLE: "non_semisimple",
}


def load_presentation(path):
    if path.startswith("example:"):
        name = path.split(":", 1)[1].upper()
        if name not in BUNDLED:
            raise InvalidInput(f"no bundled presentation {name!r}; there are {sorted(BUNDLED)}")
        return BUNDLED[name]()
    return serialize.presentation_from_json(serialize.read_json(path))


def load_module(path, pres_path=None):
    """Read a module and check it against its presentation before any work."""
    data = serialize.read_json(path)
    pres = load_presentation(pres_path) if pres_path else None
    rep = serialize.representation_from_json(data, pres=pres)
    if not rep.check_relations():
        raise InvalidInput(f"{path}: the module breaks a defining relation")
    return rep


def emit(args, payload):
    if args.pretty:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    else:
        json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def cmd_validate(args):
    pres = load_presentation(args.presentation)
    dim = algebra_dimension(pres)
    emit(
        args,
        {
            "valid": True,
            "vertices": list(pres.vertices),
            "arrows": list(pres.arrow_names),
            "special": sorted(pres.special),
            "signs": {repr(l): s for l, s in pres.signs.items()},
            "algebra_dimension": dim,
            "finite_dimensional": dim is not None,
        },
    )
    return 0


def _element_arg(field, text):
    """A field element given as an integer (base-p digits) or a JSON list of
    coefficients; anything else raises InvalidInput."""
    text = text.strip()
    try:
        data = json.loads(text) if text.startswith("[") else int(text)
    except ValueError as exc:
        raise InvalidInput(f"{text!r} is not a field element: {exc}") from exc
    return serialize.element_from_json(field, data)


def cmd_quadratic(args):
    field = make_field(args.p, args.n, json.loads(args.modulus) if args.modulus else None)
    q = SkewQuadratic(
        field,
        field.frobenius(args.sigma),
        _element_arg(field, args.beta),
        _element_arg(field, args.gamma),
    )
    report = classify_quadratic(q)
    payload = {
        "beta": serialize.element_to_json(q.beta),
        "gamma": serialize.element_to_json(q.gamma),
        "sigma": q.sigma.k,
        "is_normal": report.is_normal,
        "is_central": report.is_central,
        "is_nonsingular": report.is_nonsingular,
        "is_semisimple": report.is_semisimple,
        "case": report.case,
        "case_name": CASE_NAMES[report.case],
        "factorization": (
            [serialize.element_to_json(x) for x in report.factorization]
            if report.factorization
            else None
        ),
        "simple_modules": [serialize.matrix_to_json(m) for m in report.simple_modules],
    }
    emit(args, payload)
    return 0


def _descriptor_payload(pres, desc):
    spec = walks.rw_descriptor(pres, desc)
    return {
        "word": serialize.word_to_json(desc.word),
        "compact": serialize.word_to_compact(desc.word),
        "symmetric": desc.symmetric,
        "kind": spec.kind,
        "Jw": len(spec.Jw),
    }


def cmd_strings(args):
    pres = load_presentation(args.presentation)
    descs = words.enumerate_strings(pres, args.max_len)
    emit(args, {"strings": [_descriptor_payload(pres, d) for d in descs]})
    return 0


def cmd_bands(args):
    pres = load_presentation(args.presentation)
    descs = words.enumerate_bands(pres, args.max_period)
    emit(args, {"bands": [_descriptor_payload(pres, d) for d in descs]})
    return 0


def cmd_basis(args):
    pres = load_presentation(args.presentation)
    paths = enumerate_admissible_paths(pres, args.max_len)
    grouped = {}
    for v, names in paths:
        src, tgt = pres.path_endpoints(names, v)
        grouped.setdefault(f"{src}->{tgt}", []).append(list(names) if names else ["e_" + src])
    emit(args, {"admissible_paths": grouped, "count": len(paths)})
    return 0


def _load_param(spec, path):
    if path is None:
        return {"dim": 1}
    return serialize.read_json(path)


def cmd_build(args):
    pres = load_presentation(args.presentation)
    word = serialize.parse_word_argument(pres, args.word)
    desc = _descriptor_of(pres, word)
    spec = walks.rw_descriptor(pres, desc)
    param = _load_param(spec, args.param)
    field = pres.field
    lam = phi = None
    if "lambda" in param:
        lam = serialize.matrix_from_json(field, param["lambda"])
    if "phi" in param:
        phi = serialize.matrix_from_json(field, param["phi"])
    module = walks.make_rw_module(spec, dim=param.get("dim", 1), lam=lam, phi=phi)
    rep = walks.build_module(pres, spec, module)
    payload = serialize.representation_to_json(rep)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2 if args.pretty else None, sort_keys=True)
        emit(args, {"written": args.output, "dim": rep.dim()})
    else:
        emit(args, payload)
    return 0


def _descriptor_of(pres, word):
    if word.shape == "zper":
        inv = words.invert_word(pres, word)
        symmetric = any(
            words.shift_word(pres, word, d).period == inv.period
            for d in range(len(word.period))
        )
        return words.BandDescriptor(word, symmetric)
    return words.StringDescriptor(word, word == words.invert_word(pres, word))


def cmd_fdim(args):
    rep = load_module(args.module, args.presentation)
    word = serialize.parse_word_argument(rep.pres, args.word)
    desc = _descriptor_of(rep.pres, word)
    report = filtration.f_dim(rep, desc)
    emit(
        args,
        {
            "word": serialize.word_to_compact(word),
            "kind": report.kind,
            "index": report.index,
            "Jw": report.rank,
            "t_dim": report.t_dim,
            "b_dim": report.b_dim,
            "f_dim": report.f_dim,
        },
    )
    return 0


def cmd_decompose(args):
    rep = load_module(args.module, args.presentation)
    report = filtration.multiplicities(rep, args.max_len, args.max_period)
    emit(args, report.as_dict())
    return 0


def cmd_oracle_check(args):
    rep = load_module(args.module, args.presentation)
    report = filtration.multiplicities(rep, args.max_len, args.max_period)
    parts = homalg.brute_decompose(rep)
    agg = {}
    for part in parts:
        sub = filtration.multiplicities(part)
        for d, rank, f in sub.entries:
            key = serialize.word_to_compact(d.word)
            agg[key] = agg.get(key, 0) + f
    functor = {serialize.word_to_compact(d.word): f for d, _, f in report.entries}
    payload = {
        "summand_dims": sorted(p.dim() for p in parts),
        "functor": functor,
        "oracle": agg,
        "agree": agg == functor,
        "checksum": report.checksum,
        "complete": report.complete,
        "seed": homalg._seed(),
    }
    emit(args, payload)
    return 0 if payload["agree"] else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="clannish",
        description="string/band classification toolkit for semilinear clannish algebras",
    )
    ap.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a presentation file")
    sp.add_argument("presentation")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("quadratic", help="classify a standalone quadratic")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigma", type=int, default=0)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--gamma", required=True)
    sp.add_argument("--modulus", default=None)
    sp.set_defaults(fn=cmd_quadratic)

    sp = sub.add_parser("strings", help="enumerate strings")
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=int, required=True)
    sp.set_defaults(fn=cmd_strings)

    sp = sub.add_parser("bands", help="enumerate bands")
    sp.add_argument("presentation")
    sp.add_argument("--max-period", type=int, required=True)
    sp.set_defaults(fn=cmd_bands)

    sp = sub.add_parser("basis", help="enumerate admissible paths")
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=int, required=True)
    sp.set_defaults(fn=cmd_basis)

    sp = sub.add_parser("build", help="build a string/band module")
    sp.add_argument("presentation")
    sp.add_argument("--word", required=True)
    sp.add_argument("--param", default=None, help="JSON file with dim/lambda/phi")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("fdim", help="subquotient dimension of a module at a word")
    sp.add_argument("module")
    sp.add_argument("--word", required=True)
    sp.add_argument("--presentation", default=None)
    sp.set_defaults(fn=cmd_fdim)

    sp = sub.add_parser("decompose", help="multiplicity report with checksum")
    sp.add_argument("module")
    sp.add_argument("--presentation", default=None)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--max-period", type=int, default=None)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("oracle-check", help="brute-force decomposition vs report")
    sp.add_argument("module")
    sp.add_argument("--presentation", default=None)
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--max-period", type=int, default=None)
    sp.set_defaults(fn=cmd_oracle_check)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ClannishError as exc:
        json.dump(
            {"error": {"type": type(exc).__name__, "detail": str(exc)}},
            sys.stdout,
        )
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
