"""Command-line front end.

Every command prints a single JSON document (pass --pretty for indentation)
and exits 0 on success; domain errors, command lines that do not parse and
running out of memory (as ``TooLarge``) print {"error": {...}} and exit 1.
The one exception is ``oracle-check``, which exits 1 with its report, and a
"reason", when the functor and the oracle disagree.
Presentation files may be given as a path or as "example:NAME" for one of
the bundled presentations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import filtration, serialize, walks, words
from .errors import ClannishError, InvalidInput, UsageError
from .examples import BUNDLED
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
    # one write of the whole document: json.dump writes each encoder chunk
    text = json.dumps(payload, indent=2 if args.pretty else None, sort_keys=True)
    sys.stdout.write(text + "\n")


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


def _field_arg(args):
    """GF(p^n) from --p, --n and an optional --modulus, a JSON list of
    integer coefficients; anything else raises InvalidInput."""
    modulus = None
    if args.modulus:
        try:
            modulus = json.loads(args.modulus)
        except ValueError as exc:
            raise InvalidInput(f"--modulus {args.modulus!r} is not JSON: {exc}") from exc
    return serialize.field_from_json({"p": args.p, "n": args.n, "modulus": modulus})


def cmd_quadratic(args):
    field = _field_arg(args)
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
    shape = walks.walk_shape(pres, desc)
    return {
        "word": serialize.word_to_json(desc.word),
        "compact": serialize.word_to_compact(desc.word),
        "symmetric": desc.symmetric,
        "kind": shape.kind,
        "Jw": len(shape.Jw),
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


def _load_param(path):
    """The --param file: a JSON object whose "dim", if given, is a positive
    integer; anything else raises InvalidInput."""
    if path is None:
        return {"dim": 1}
    param = serialize.read_json(path)
    if not isinstance(param, dict):
        raise InvalidInput(f"{path}: a parameter file holds a JSON object")
    dim = param.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int) or dim <= 0):
        raise InvalidInput(f"{path}: \"dim\" must be a positive integer, not {dim!r}")
    return param


def _param_matrices(pres, spec, param, path):
    """(lambda, phi) of the --param file, None where it gives none; a matrix
    that the word's parameter ring does not take, one with no rows, or a
    "dim" other than a matrix's size, raises InvalidInput."""
    # every ring but K = the asymmetric strings' takes lambda; only the
    # symmetric bands' also takes phi
    takes = {"lambda": spec.kind != walks.ASYM_STRING, "phi": spec.kind == walks.SYM_BAND}
    mats = {}
    for key in ("lambda", "phi"):
        if key not in param:
            continue
        if not takes[key]:
            raise InvalidInput(f"{path}: {key!r} is no parameter of a {spec.kind} word")
        mat = mats[key] = serialize.matrix_from_json(pres.field, param[key])
        if not mat.nrows:
            raise InvalidInput(f"{path}: {key!r} has no rows")
        if param.get("dim", mat.nrows) != mat.nrows:
            raise InvalidInput(
                f"{path}: \"dim\" is {param['dim']}, but {key!r} has {mat.nrows} rows"
            )
    return mats.get("lambda"), mats.get("phi")


def cmd_build(args):
    pres = load_presentation(args.presentation)
    word = serialize.parse_word_argument(pres, args.word)
    desc = words.descriptor_of(pres, word)
    spec = walks.rw_descriptor(pres, desc)
    param = _load_param(args.param)
    lam, phi = _param_matrices(pres, spec, param, args.param)
    module = walks.make_rw_module(spec, dim=param.get("dim", 1), lam=lam, phi=phi)
    rep = walks.build_module(pres, spec, module)
    payload = serialize.representation_to_json(rep)
    if args.output:
        text = json.dumps(payload, indent=2 if args.pretty else None, sort_keys=True)
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.output}: {exc.strerror}") from exc
        emit(args, {"written": args.output, "dim": rep.dim()})
    else:
        emit(args, payload)
    return 0


def cmd_fdim(args):
    rep = load_module(args.module, args.presentation)
    word = serialize.parse_word_argument(rep.pres, args.word)
    desc = words.descriptor_of(rep.pres, word)
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
    report = filtration.multiplicities(rep)
    emit(args, report.as_dict())
    return 0


def cmd_oracle_check(args):
    # imported here, so that no other command loads the oracle
    from . import homalg

    rep = load_module(args.module, args.presentation)
    report = filtration.multiplicities(rep)
    parts = homalg.brute_decompose(rep)
    agg, broken = {}, []
    for k, part in enumerate(parts):
        sub = filtration.multiplicities(part)
        # an indecomposable summand is one string or band: exactly one entry,
        # with |J_w| * f_dim = dim, or a functor error could cancel in the sums
        if len(sub.entries) != 1 or sub.checksum != part.dim():
            broken.append(
                f"summand {k} of dimension {part.dim()} gives {len(sub.entries)} "
                f"entries with checksum {sub.checksum}"
            )
        for d, rank, f in sub.entries:
            key = serialize.word_to_compact(d.word)
            agg[key] = agg.get(key, 0) + f
    functor = {serialize.word_to_compact(d.word): f for d, _, f in report.entries}
    payload = {
        "summand_dims": sorted(p.dim() for p in parts),
        "functor": functor,
        "oracle": agg,
        "agree": agg == functor and not broken,
        "checksum": report.checksum,
        "complete": report.complete,
        "seed": homalg.SEED,
    }
    if not payload["agree"]:
        summed = "the summands' multiplicities differ from the module's"
        payload["reason"] = "; ".join(broken) or summed
    emit(args, payload)
    return 0 if payload["agree"] else 1


class _Parser(argparse.ArgumentParser):
    """Reports a command line that does not parse as a UsageError, so that it
    follows the error contract; subcommand parsers share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def positive_int(text):
    """A --max-len/--max-period value: a positive integer."""
    value = int(text)
    if value <= 0:
        raise InvalidInput(f"--max-len and --max-period must be positive, not {value}")
    return value


def build_parser():
    ap = _Parser(
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
    sp.add_argument("--max-len", type=positive_int, required=True)
    sp.set_defaults(fn=cmd_strings)

    sp = sub.add_parser("bands", help="enumerate bands")
    sp.add_argument("presentation")
    sp.add_argument("--max-period", type=positive_int, required=True)
    sp.set_defaults(fn=cmd_bands)

    sp = sub.add_parser("basis", help="enumerate admissible paths")
    sp.add_argument("presentation")
    sp.add_argument("--max-len", type=positive_int, required=True)
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
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("oracle-check", help="brute-force decomposition vs report")
    sp.add_argument("module")
    sp.add_argument("--presentation", default=None)
    sp.set_defaults(fn=cmd_oracle_check)

    return ap


_OUT_OF_MEMORY = {"type": "TooLarge", "detail": "the command ran out of memory"}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ClannishError as exc:
        error = {"type": type(exc).__name__, "detail": str(exc)}
    except MemoryError:
        # no allocation here: the memory comes back only once this block
        # releases the frames of the failed command
        error = _OUT_OF_MEMORY
    sys.stdout.write(json.dumps({"error": error}) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
