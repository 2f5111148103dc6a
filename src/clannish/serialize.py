"""JSON encodings for fields, presentations, words, parameter data,
representations and decomposition reports."""

from __future__ import annotations

import json

from .errors import FieldMismatch, InvalidInput, PresentationMismatch
from .fields import make_field
from .linalg import Matrix
from .presentation import ArrowInfo, Letter, validate
from .reps import Representation
from .words import Word, finite_word, periodic_word


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
    """An int or a list of at most n coefficients, padded with zeros.  A
    prime field reduces an int modulo p; GF(p^n) with n >= 2 reads it as
    base-p digits and takes it only in range(q).  Anything else raises
    InvalidInput."""
    _check_kind(data, (int, list), "a field element")
    if isinstance(data, int):
        if field.n > 1 and not 0 <= data < field.q:
            raise InvalidInput(
                f"an integer element of {field!r} lies in range({field.q}), not {data}"
            )
        return field.el(data)
    coeffs = _items(data, int, "a field element")
    if len(coeffs) > field.n:
        raise InvalidInput(
            f"an element of {field!r} has at most {field.n} coefficients, not {len(coeffs)}"
        )
    return field.el(coeffs)


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
    """A letter: {"star": name} or {"arrow": name, "dir": "dir" | "inv"}."""
    if "star" in data:
        return Letter("s", _key(data, "star", str))
    name = _key(data, "arrow", str)
    direction = _key(data, "dir", str, "dir")
    if direction not in ("dir", "inv"):
        raise InvalidInput(f"a letter's \"dir\" is \"dir\" or \"inv\", not {direction!r}")
    return Letter("d" if direction == "dir" else "i", name)


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
    """A word from its JSON encoding; a missing or wrongly typed key raises
    InvalidInput naming it."""
    letters = tuple(
        letter_from_json(l) for l in _items(_key(data, "letters", list, []), dict, "key 'letters'")
    )
    if not letters:
        v0 = _key(data, "v0", str)
        _check_names(pres, (), v0)
        return finite_word(pres, v0, _key(data, "sign", int), ())
    _check_names(pres, letters)
    start = (pres.head(letters[0]), pres.sign(letters[0]))
    if (_key(data, "v0", str, start[0]), _key(data, "sign", int, start[1])) != start:
        raise InvalidInput(f"the first letter starts at vertex {start[0]} with sign {start[1]:+d}")
    period = _key(data, "period", int, 0)
    if period and period != len(letters):
        raise InvalidInput("period must equal the number of letters given")
    if period:
        return periodic_word(pres, letters)
    return finite_word(pres, pres.head(letters[0]), pres.sign(letters[0]), letters)


def matrix_to_json(mat):
    return [[element_to_json(x) for x in row] for row in mat.rows]


def matrix_from_json(field, data):
    rows = [[element_from_json(field, x) for x in row] for row in _items(data, list, "a matrix")]
    return Matrix(field, rows)


def representation_to_json(rep):
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
        if d < 0:
            raise InvalidInput(f"vertex {v!r} has dimension {d}")
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
        shape = (dims.get(info.source, 0), dims.get(info.target, 0))
        if len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise InvalidInput(
                f"arrow {name!r} goes from dimension {shape[0]} to {shape[1]}, so its matrix"
                f" must be {shape[0]} x {shape[1]}"
            )
        mats[name] = Matrix(field, rows, *shape)
    labels = _key(data, "labels", dict, None)
    if labels is not None:
        labels = {
            v: [tuple(_items(x, int, "a label")) for x in _items(lst, list, "key 'labels'")]
            for v, lst in labels.items()
        }
        for v, lst in labels.items():
            _check_names(pres, (), v)
            if len(lst) != dims.get(v, 0):
                raise InvalidInput(
                    f"vertex {v!r} has dimension {dims.get(v, 0)}, but {len(lst)} labels"
                )
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
        parts = text.split(":")
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise InvalidInput(f"a trivial word is spelled e:VERTEX:+ or e:VERTEX:-, not {text!r}")
        _check_names(pres, (), parts[1])
        return Word("finite", parts[1], 1 if parts[2] == "+" else -1, ())
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
        return periodic_word(pres, letters)
    return finite_word(pres, pres.head(letters[0]), pres.sign(letters[0]), letters)


def parse_word_argument(pres, text):
    """Accept a compact spelling, inline JSON, or @path-to-JSON; a word that
    does not parse raises InvalidInput."""
    text = text.strip()
    if text.startswith("@"):
        return word_from_json(pres, read_json(text[1:]))
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InvalidInput(f"--word {text!r} is not a JSON document: {exc}") from exc
        return word_from_json(pres, data)
    return word_from_compact(pres, text)
