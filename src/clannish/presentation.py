"""Presentations of semilinear clannish algebras.

A presentation is a quiver with one automorphism per arrow, a set of special
loops bound by monic quadratics, and zero relations.  Validation checks the
degree axioms, the quadratic hypotheses (normal, non-singular, semisimple)
and computes a sign for every letter.  Paths are written in function
composition order: in a path ``a b``, the arrow ``b`` is applied first, so
``a b`` is composable when tail(a) == head(b).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadQuadratic,
    ClannishViolation,
    NoSignAssignment,
    NonComposablePath,
)
from .fields import Aut
from .skewquad import SkewQuadratic, classify_quadratic

_KIND_RANK = {"d": 0, "i": 1, "s": 2}


@dataclass(frozen=True)
class Letter:
    """A direct ordinary letter, an inverse ordinary letter, or a star letter."""

    kind: str  # 'd', 'i' or 's'
    name: str

    def inverse(self):
        if self.kind == "d":
            return Letter("i", self.name)
        if self.kind == "i":
            return Letter("d", self.name)
        return self

    @property
    def is_star(self):
        return self.kind == "s"

    def key(self):
        return (_KIND_RANK[self.kind], self.name)

    def __repr__(self):
        if self.kind == "d":
            return self.name
        if self.kind == "i":
            return f"{self.name}^-1"
        return f"{self.name}*"


@dataclass(frozen=True)
class ArrowInfo:
    name: str
    source: str
    target: str
    sigma_k: int


class Presentation:
    """A validated presentation; immutable after construction apart from the
    caches that filtration fills."""

    def __init__(self, field, vertices, arrows, special, zero_relations, signs):
        self.field = field
        self.vertices = tuple(vertices)
        self.arrows = {a.name: a for a in arrows}
        self.arrow_names = tuple(a.name for a in arrows)
        self.special = dict(special)  # name -> SkewQuadratic
        self.zero_relations = tuple(tuple(r) for r in zero_relations)
        self.signs = dict(signs)  # Letter -> +-1
        # candidate descriptors and their specs, filled by filtration
        self._descriptors = {}
        self._specs = {}

    # -- arrows and letters ---------------------------------------------------

    def sigma(self, name):
        return Aut(self.field, self.arrows[name].sigma_k)

    def quadratic(self, name):
        return self.special[name]

    def ordinary_arrows(self):
        return [a for a in self.arrow_names if a not in self.special]

    def letters(self):
        out = [Letter("s", s) for s in sorted(self.special)]
        for a in sorted(self.ordinary_arrows()):
            out.append(Letter("d", a))
            out.append(Letter("i", a))
        return out

    def head(self, letter):
        info = self.arrows[letter.name]
        return info.source if letter.kind == "i" else info.target

    def tail(self, letter):
        info = self.arrows[letter.name]
        return info.target if letter.kind == "i" else info.source

    def sign(self, letter):
        return self.signs[letter]

    def specials_at(self, vertex):
        return [s for s in sorted(self.special) if self.arrows[s].source == vertex]

    # -- paths ----------------------------------------------------------------

    def path_endpoints(self, names, vertex=None):
        """(source, target) of a path; validates composability."""
        if not names:
            if vertex is None:
                raise NonComposablePath("trivial path needs a vertex")
            return vertex, vertex
        for x, y in zip(names, names[1:]):
            if self.arrows[x].source != self.arrows[y].target:
                raise NonComposablePath(f"{x}{y} is not a path")
        return self.arrows[names[-1]].source, self.arrows[names[0]].target

    def path_sigma(self, names):
        aut = Aut(self.field, 0)
        for a in names:
            aut = aut * self.sigma(a)
        return aut

    def contains_zero_relation(self, names):
        for r in self.zero_relations:
            k = len(r)
            for i in range(len(names) - k + 1):
                if tuple(names[i : i + k]) == r:
                    return True
        return False

    # -- misc -----------------------------------------------------------------

    def max_relation_length(self):
        return max((len(r) for r in self.zero_relations), default=0)

    def __repr__(self):
        return (
            f"Presentation({self.field!r}, vertices={list(self.vertices)}, "
            f"arrows={list(self.arrow_names)}, special={sorted(self.special)})"
        )


def _letter_order(letters):
    stars = sorted((l for l in letters if l.kind == "s"), key=lambda l: l.name)
    ordinary = sorted((l for l in letters if l.kind != "s"), key=lambda l: (l.name, l.kind))
    return stars + ordinary


def _pair_allowed(pres_like, x, y):
    """Distinct same-head same-sign letters must form {a^-1, b} with ab in Z."""
    if x.kind == "s" or y.kind == "s":
        return False
    if x.kind == y.kind:
        return False
    inv, direct = (x, y) if x.kind == "i" else (y, x)
    return (inv.name, direct.name) in pres_like


def assign_signs(field, arrows, special, zero_relations):
    """Deterministic sign assignment, or raise NoSignAssignment.

    Letters are scanned stars first, then ordinary arrows by name with the
    direct letter before the inverse; +1 is tried before -1, so the result is
    the lexicographically least valid assignment in that order.
    """
    arrow_map = {a.name: a for a in arrows}
    relations2 = {tuple(r) for r in zero_relations if len(r) == 2}

    def head(letter):
        info = arrow_map[letter.name]
        return info.source if letter.kind == "i" else info.target

    letters = _letter_order(
        [Letter("s", s) for s in special]
        + [l for a in arrow_map if a not in special for l in (Letter("d", a), Letter("i", a))]
    )
    heads = {l: head(l) for l in letters}
    assignment = {}

    def ok(letter, sign):
        for other, s in assignment.items():
            if s == sign and heads[other] == heads[letter] and other != letter:
                if not _pair_allowed(relations2, letter, other):
                    return False
        return True

    def search(idx):
        if idx == len(letters):
            return True
        letter = letters[idx]
        for sign in (1, -1):
            if ok(letter, sign):
                assignment[letter] = sign
                if search(idx + 1):
                    return True
                del assignment[letter]
        return False

    if not search(0):
        raise NoSignAssignment("no valid sign assignment exists; presentation is not clannish")
    return assignment


def validate(field, vertices, arrows, special, zero_relations):
    """Check all axioms and return a Presentation.

    ``arrows``: iterable of ArrowInfo (or (name, source, target, sigma_k)).
    ``special``: mapping loop name -> (beta, gamma).
    ``zero_relations``: iterable of arrow-name sequences, length >= 2.
    """
    arrows = [a if isinstance(a, ArrowInfo) else ArrowInfo(*a) for a in arrows]
    arrow_map = {}
    for a in arrows:
        if a.name in arrow_map:
            raise ClannishViolation("arrows", a.name, f"duplicate arrow name {a.name!r}")
        if a.source not in vertices or a.target not in vertices:
            raise ClannishViolation("arrows", a.name, f"arrow {a.name!r} touches unknown vertex")
        arrow_map[a.name] = a

    special_q = {}
    for name, (beta, gamma) in dict(special).items():
        info = arrow_map.get(name)
        if info is None or info.source != info.target:
            raise ClannishViolation("special", name, f"special arrow {name!r} must be a loop")
        special_q[name] = SkewQuadratic(field, Aut(field, info.sigma_k), beta, gamma)

    relations = [tuple(r) for r in zero_relations]
    for r in relations:
        if len(r) < 2:
            raise ClannishViolation("relations", r, "zero relations have length >= 2")
        if any(x not in arrow_map for x in r):
            raise ClannishViolation("relations", r, f"relation {r} names an unknown arrow")
        for x, y in zip(r, r[1:]):
            if arrow_map[x].source != arrow_map[y].target:
                raise ClannishViolation("relations", r, f"relation {r} is not a path")
        if r[0] in special_q or r[-1] in special_q:
            raise ClannishViolation("relations", r, "relation starts or ends with a special loop")
        for x, y in zip(r, r[1:]):
            if x == y and x in special_q:
                raise ClannishViolation("relations", r, "relation repeats a special loop")

    # degree conditions (1), (1')
    for v in vertices:
        tails = [a.name for a in arrows if a.source == v]
        heads = [a.name for a in arrows if a.target == v]
        if len(tails) > 2:
            raise ClannishViolation("(1)", v, f"more than two arrows start at {v!r}")
        if len(heads) > 2:
            raise ClannishViolation("(1')", v, f"more than two arrows end at {v!r}")

    # conditions (2), (2')
    rel_set = {tuple(r) for r in relations}
    for a in arrows:
        if a.name in special_q:
            continue
        after = [
            c.name
            for c in arrows
            if c.source == a.target and (c.name, a.name) not in rel_set
        ]
        if len(after) > 1:
            raise ClannishViolation("(2)", a.name, f"{after} all compose onto {a.name!r}")
        before = [
            c.name
            for c in arrows
            if a.source == c.target and (a.name, c.name) not in rel_set
        ]
        if len(before) > 1:
            raise ClannishViolation("(2')", a.name, f"{a.name!r} composes onto all of {before}")

    for name, q in special_q.items():
        report = classify_quadratic(q)
        if not (report.is_normal and report.is_nonsingular and report.is_semisimple):
            raise BadQuadratic(name, report)

    signs = assign_signs(field, arrows, special_q, relations)
    return Presentation(field, vertices, arrows, special_q, relations, signs)


# ---------------------------------------------------------------------------
# the algebra itself: formal K-combinations of paths in normal form


class AlgebraElement:
    """A K-linear combination of admissible paths, kept in normal form.

    Paths are stored as (vertex, names) with vertex only significant for the
    trivial path.  Multiplication moves scalars across arrows with the
    per-arrow automorphisms, kills zero relations and rewrites repeated
    special loops with their quadratics.
    """

    def __init__(self, pres, terms=None, _reduced=False):
        self.pres = pres
        raw = dict(terms or {})
        self.terms = raw if _reduced else _reduce_terms(pres, raw)

    @classmethod
    def path(cls, pres, names, coeff=1, vertex=None):
        names = tuple(names)
        source, target = pres.path_endpoints(names, vertex)
        key = (source if not names else None, names)
        return cls(pres, {key: pres.field.el(coeff)})

    @classmethod
    def zero(cls, pres):
        return cls(pres, {}, _reduced=True)

    @classmethod
    def unit(cls, pres):
        return cls(
            pres,
            {(v, ()): pres.field.one() for v in pres.vertices},
            _reduced=True,
        )

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc = out.get(k)
            s = c if acc is None else acc + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return AlgebraElement(self.pres, out, _reduced=True)

    def __neg__(self):
        return AlgebraElement(
            self.pres, {k: -c for k, c in self.terms.items()}, _reduced=True
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, lam):
        lam = self.pres.field.el(lam)
        if not lam:
            return AlgebraElement.zero(self.pres)
        return AlgebraElement(
            self.pres, {k: lam * c for k, c in self.terms.items()}, _reduced=True
        )

    def __mul__(self, other):
        pres = self.pres
        out = {}
        for (v1, p), c1 in self.terms.items():
            p_src = pres.path_endpoints(p, v1)[0]
            sig = pres.path_sigma(p)
            for (v2, q), c2 in other.terms.items():
                q_tgt = pres.path_endpoints(q, v2)[1]
                if p_src != q_tgt:
                    continue
                names = p + q
                key = ((v1 if not names else None), names)
                c = c1 * sig(c2)
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
        return AlgebraElement(pres, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.pres is other.pres
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (v, names), c in sorted(self.terms.items(), key=lambda kv: (len(kv[0][1]), kv[0])):
            word = "*".join(names) if names else f"e_{v}"
            bits.append(f"({c!r})[{word}]")
        return " + ".join(bits)


def _reduce_terms(pres, raw):
    """Normal form of a raw path combination on the admissible-path basis."""
    field = pres.field
    pending = [((v, names), c) for (v, names), c in raw.items() if c]
    out = {}
    while pending:
        (v, names), c = pending.pop()
        if not c:
            continue
        if pres.contains_zero_relation(names):
            continue
        spot = next(
            (
                i
                for i in range(len(names) - 1)
                if names[i] == names[i + 1] and names[i] in pres.special
            ),
            None,
        )
        if spot is None:
            key = ((v if not names else None), names)
            acc = out.get(key)
            s = c if acc is None else acc + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
            continue
        # rewrite s*s inside u s s w as beta * (u s w) - gamma * (u w)
        s = names[spot]
        q = pres.special[s]
        u, w = names[:spot], names[spot + 2 :]
        sig_u = pres.path_sigma(u)
        beta_c = c * sig_u(q.beta)
        gamma_c = c * sig_u(q.gamma)
        if beta_c:
            pending.append(((v, u + (s,) + w), beta_c))
        if gamma_c:
            vtx = pres.arrows[s].source if not (u + w) else None
            pending.append(((vtx, u + w), -gamma_c))
    return out


def enumerate_admissible_paths(pres, max_len):
    """All admissible paths of length <= max_len, shortest first.

    Returns (vertex, names) pairs with vertex only set for trivial paths;
    grouping by endpoints is left to callers.
    """
    out = [(v, ()) for v in sorted(pres.vertices)]
    layer = list(out)
    for _ in range(max_len):
        nxt = []
        for v, names in layer:
            source = pres.path_endpoints(names, v)[0]
            for b in sorted(pres.arrow_names):
                if pres.arrows[b].target != source:
                    continue
                if names and names[-1] == b and b in pres.special:
                    continue
                cand = names + (b,)
                if _new_relation_at_end(pres, cand):
                    continue
                nxt.append((None, cand))
        layer = nxt
        out.extend(layer)
        if not layer:
            break
    return out


def _new_relation_at_end(pres, names):
    for r in pres.zero_relations:
        k = len(r)
        if k <= len(names) and tuple(names[-k:]) == r:
            return True
    return False


def algebra_dimension(pres):
    """K-dimension of the algebra, or None when infinite-dimensional."""
    bound = len(pres.arrow_names) * len(pres.vertices) * 2 + pres.max_relation_length()
    paths = enumerate_admissible_paths(pres, bound)
    # A nontrivial path as long as the bound means paths never die out;
    # without arrows the bound is 0 and only the trivial paths exist.
    if any(names and len(names) == bound for _, names in paths):
        return None
    return len(paths)
