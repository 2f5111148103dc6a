"""JSON encodings for fields, presentations, words, parameter data,
representations and decomposition reports."""

from __future__ import annotations

import json

from .errors import FieldMismatch, InvalidInput, PresentationMismatch
from .fields import make_field
from .linalg import Matrix
from .presentation import ArrowInfo, Letter, validate
from .reps import Representation
from .words import Word, validate_word


def read_json(path):
    """The JSON document in a file; unreadable or malformed files raise
    InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidInput(f"{path} is not a JSON document: {exc}") from exc


def _check_names(pres, letters, v0=None):
    """Reject letters and a vertex the presentation does not have."""
    for letter in letters:
        if letter not in pres.signs:
            raise InvalidInput(f"the presentation has no letter '{letter!r}'")
    if v0 is not None and v0 not in pres.vertices:
        raise InvalidInput(f"the presentation has no vertex {v0!r}")


_REQUIRED = object()
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _key(data, key, kind, default=_REQUIRED):
    """data[key], checked to be of the JSON type ``kind`` (a type or a tuple
    of types).  A missing or wrongly typed key raises InvalidInput naming it;
    an optional key may be absent or null."""
    if not isinstance(data, dict):
        raise InvalidInput(f"expected an object holding {key!r}, got {type(data).__name__}")
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInput(f"missing key {key!r}")
        return default
    _check_kind(value, kind, f"key {key!r}")
    return value


def _check_kind(value, kind, what):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = " or ".join(_KIND_NAMES[k] for k in kinds)
        raise InvalidInput(f"{what} must be {names}, not {type(value).__name__}")


def _items(values, kind, what):
    """A JSON list whose entries are each checked to be of type ``kind``."""
    _check_kind(values, list, what)
    for value in values:
        _check_kind(value, kind, f"every entry of {what}")
    return values


def element_to_json(x):
    return list(x.coeffs)


def element_from_json(field, data):
    _check_kind(data, (int, list), "a field element")
    if isinstance(data, int):
        return field.el(data)
    return field.el(_items(data, int, "a field element"))


def field_to_json(field):
    return {"p": field.p, "n": field.n, "modulus": list(field.modulus)}


def field_from_json(data):
    modulus = _key(data, "modulus", list, None)
    if modulus is not None:
        _items(modulus, int, "key 'modulus'")
    return make_field(_key(data, "p", int), _key(data, "n", int), modulus)


def presentation_to_json(pres):
    return {
        "field": field_to_json(pres.field),
        "vertices": list(pres.vertices),
        "arrows": [
            {
                "name": a,
                "from": pres.arrows[a].source,
                "to": pres.arrows[a].target,
                "sigma": pres.arrows[a].sigma_k,
            }
            for a in pres.arrow_names
        ],
        "special": [
            {
                "loop": s,
                "beta": element_to_json(q.beta),
                "gamma": element_to_json(q.gamma),
            }
            for s, q in sorted(pres.special.items())
        ],
        "zero_relations": [list(r) for r in pres.zero_relations],
    }


def presentation_from_json(data):
    """A presentation from its JSON encoding; a missing or wrongly typed key
    raises InvalidInput naming it."""
    field = field_from_json(_key(data, "field", dict))
    vertices = _items(_key(data, "vertices", list), str, "key 'vertices'")
    arrows = [
        ArrowInfo(
            _key(a, "name", str), _key(a, "from", str), _key(a, "to", str), _key(a, "sigma", int, 0)
        )
        for a in _key(data, "arrows", list)
    ]
    special = {
        _key(s, "loop", str): (
            element_from_json(field, _key(s, "beta", (int, list))),
            element_from_json(field, _key(s, "gamma", (int, list))),
        )
        for s in _key(data, "special", list, [])
    }
    relations = [
        tuple(_items(r, str, "a zero relation"))
        for r in _items(_key(data, "zero_relations", list, []), list, "key 'zero_relations'")
    ]
    return validate(field, tuple(vertices), arrows, special, relations)


def letter_to_json(letter):
    if letter.kind == "s":
        return {"star": letter.name}
    return {"arrow": letter.name, "dir": "dir" if letter.kind == "d" else "inv"}


def letter_from_json(data):
    if "star" in data:
        return Letter("s", data["star"])
    return Letter("d" if data.get("dir", "dir") == "dir" else "i", data["arrow"])


def word_to_json(w):
    out = {
        "sign": w.eps,
        "v0": w.v0,
        "letters": [letter_to_json(l) for l in (w.letters if w.shape == "finite" else w.period)],
    }
    if w.shape == "zper":
        out["period"] = len(w.period)
    return out


def word_from_json(pres, data):
    letters = tuple(letter_from_json(l) for l in data.get("letters", []))
    _check_names(pres, letters, None if letters else data["v0"])
    if data.get("period"):
        if int(data["period"]) != len(letters):
            raise InvalidInput("period must equal the number of letters given")
        w = Word("zper", pres.head(letters[0]), pres.sign(letters[0]), (), letters)
    else:
        v0 = data["v0"] if not letters else pres.head(letters[0])
        eps = int(data["sign"]) if not letters else pres.sign(letters[0])
        w = Word("finite", v0, eps, letters)
    return validate_word(pres, w)


def matrix_to_json(mat):
    return [[element_to_json(x) for x in row] for row in mat.rows]


def matrix_from_json(field, data, nrows=None, ncols=None):
    rows = [[element_from_json(field, x) for x in row] for row in data]
    return Matrix(field, rows, nrows if rows == [] else None, ncols if rows == [] else None)


def representation_to_json(rep, include_presentation=True):
    out = {
        "field": field_to_json(rep.field),
        "dims": dict(rep.dims),
        "arrows": {
            name: {
                "sigma": rep.pres.arrows[name].sigma_k,
                "matrix": matrix_to_json(rep.mats[name]),
            }
            for name in rep.pres.arrow_names
        },
    }
    if rep.labels is not None:
        out["labels"] = {v: [list(x) for x in lst] for v, lst in rep.labels.items()}
    if include_presentation:
        out["presentation"] = presentation_to_json(rep.pres)
    return out


def representation_from_json(data, pres=None):
    """A module from its JSON encoding; a missing or wrongly typed key raises
    InvalidInput naming it."""
    if pres is None:
        if not isinstance(data, dict) or "presentation" not in data:
            raise InvalidInput("representation file carries no presentation")
        pres = presentation_from_json(_key(data, "presentation", dict))
    field = pres.field
    declared = _key(data, "field", dict, None)
    declared = field if declared is None else field_from_json(declared)
    if declared != field:
        raise FieldMismatch(f"module over {declared}, presentation over {field}")
    dims = _key(data, "dims", dict)
    for v, d in dims.items():
        _check_names(pres, (), v)
        _check_kind(d, int, "every value of key 'dims'")
    mats = {}
    for name, spec in _key(data, "arrows", dict, {}).items():
        info = pres.arrows.get(name)
        if info is None:
            raise InvalidInput(f"the presentation has no arrow {name!r}")
        sigma = _key(spec, "sigma", int, info.sigma_k)
        if sigma != info.sigma_k:
            raise PresentationMismatch(
                f"arrow {name!r} has sigma {sigma} in the module, {info.sigma_k} in the presentation"
            )
        matrix = _items(_key(spec, "matrix", list), list, f"arrow {name!r} key 'matrix'")
        rows = [[element_from_json(field, x) for x in row] for row in matrix]
        mats[name] = Matrix(field, rows, dims.get(info.source, 0), dims.get(info.target, 0))
    labels = _key(data, "labels", dict, None)
    if labels is not None:
        labels = {
            v: [tuple(_items(x, int, "a label")) for x in _items(lst, list, "key 'labels'")]
            for v, lst in labels.items()
        }
    return Representation(pres, dims, mats, labels=labels)


def word_to_compact(w):
    """Human-typable spelling: letters joined by dots, e.g. "s*.a^-1.s*"."""
    letters = w.letters if w.shape == "finite" else w.period
    body = ".".join(
        l.name + "*" if l.kind == "s" else (l.name if l.kind == "d" else l.name + "^-1")
        for l in letters
    )
    if w.shape == "zper":
        return f"({body})"
    return body or f"e:{w.v0}:{'+' if w.eps > 0 else '-'}"


def word_from_compact(pres, text):
    text = text.strip()
    if text.startswith("e:"):
        _, v0, sign = text.split(":")
        _check_names(pres, (), v0)
        return Word("finite", v0, 1 if sign == "+" else -1, ())
    periodic = text.startswith("(") and text.endswith(")")
    if periodic:
        text = text[1:-1]
    letters = []
    for tok in text.split("."):
        tok = tok.strip()
        if tok.endswith("^-1"):
            letters.append(Letter("i", tok[:-3]))
        elif tok.endswith("*"):
            letters.append(Letter("s", tok[:-1]))
        else:
            letters.append(Letter("d", tok))
    letters = tuple(letters)
    _check_names(pres, letters)
    if periodic:
        w = Word("zper", pres.head(letters[0]), pres.sign(letters[0]), (), letters)
    else:
        w = Word("finite", pres.head(letters[0]), pres.sign(letters[0]), letters)
    return validate_word(pres, w)


def parse_word_argument(pres, text):
    """Accept a compact spelling, inline JSON, or @path-to-JSON."""
    text = text.strip()
    if text.startswith("@"):
        return word_from_json(pres, read_json(text[1:]))
    if text.startswith("{"):
        return word_from_json(pres, json.loads(text))
    return word_from_compact(pres, text)
