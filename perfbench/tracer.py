"""Span tracing of calls into clannish's public functions, and the per-layer
metrics derived from the spans.

The wrappers are installed from outside the package: each traced function is
replaced, in every ``clannish.*`` module that holds a reference to it, by a
wrapper that records one span per call.  A span is the tuple

    (name_index, start, end, parent_index, request, value)

with times from ``time.perf_counter`` (on Linux the system-wide monotonic
clock, so a child process can be given its parent's spawn time), the index
of the enclosing span (-1 at top level), a request id set by the caller, and
an optional integer taken from the result (a length or a flag).  Spans stay
in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# (span name, module, attribute) for each traced callable.  Span names are
# "<layer>.<function>" with the layer named after the module in src/clannish.
TARGETS = (
    ("serialize.representation_from_json", "serialize", "representation_from_json"),
    ("words.enumerate_strings", "words", "enumerate_strings"),
    ("words.enumerate_bands", "words", "enumerate_bands"),
    ("walks.rw_descriptor", "walks", "rw_descriptor"),
    ("filtration.candidate_descriptors", "filtration", "candidate_descriptors"),
    ("filtration.multiplicities", "filtration", "multiplicities"),
    ("filtration.f_dim", "filtration", "f_dim"),
    ("filtration.walk_plus_minus", "filtration", "walk_plus_minus"),
    ("relations.arrow_relation", "relations", "arrow_relation"),
    ("relations.walk_letter_relation", "relations", "walk_letter_relation"),
    ("relations.image", "relations", "SemilinearRelation.image"),
    ("relations.preimage", "relations", "SemilinearRelation.preimage"),
    ("relations.compose", "relations", "SemilinearRelation.compose"),
    ("relations.stable_pair", "relations", "SemilinearRelation.stable_pair"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.left_nullspace", "linalg", "left_nullspace"),
    ("linalg.Subspace", "linalg", "Subspace.__init__"),
    ("linalg.Subspace.from_packed", "linalg", "Subspace.from_packed"),
    ("linalg.Subspace.intersect", "linalg", "Subspace.intersect"),
    ("linalg.Subspace.sum", "linalg", "Subspace.sum"),
    ("linalg.Subspace.contains", "linalg", "Subspace.contains"),
    ("homalg.hom_space", "homalg", "hom_space"),
    ("homalg.radical_basis", "homalg", "radical_basis"),
    ("homalg.is_indecomposable", "homalg", "is_indecomposable"),
    ("homalg.brute_decompose", "homalg", "brute_decompose"),
)

# Integers kept from a call's result, for the counts that need more than a
# call count.
VALUES = {
    "filtration.candidate_descriptors": len,
    "filtration.f_dim": lambda report: 1 if report.f_dim else 0,
    "homalg.brute_decompose": len,
}

STARTUP = "cli.startup"
SUBSPACE_OPS = (
    "linalg.Subspace",
    "linalg.Subspace.from_packed",
    "linalg.Subspace.intersect",
    "linalg.Subspace.sum",
    "linalg.Subspace.contains",
    "linalg.left_nullspace",
)

# Per-layer metrics in output order, with their units.
LAYER_METRICS = (
    ("cli.startup_s", "s"),
    ("serialize.load_s", "s"),
    ("words.enumerate_s", "s"),
    ("words.enumerate_calls", "count"),
    ("words.descriptors", "count"),
    ("walks.rw_descriptor_s", "s"),
    ("walks.rw_descriptor_calls", "count"),
    ("filtration.self_s", "s"),
    ("filtration.f_dim_calls", "count"),
    ("filtration.f_dim_nonzero", "count"),
    ("filtration.useful_ratio", "ratio"),
    ("filtration.walk_plus_minus_calls", "count"),
    ("relations.self_s", "s"),
    ("relations.image_calls", "count"),
    ("relations.compose_calls", "count"),
    ("relations.stable_pair_calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.rref_calls", "count"),
    ("linalg.subspace_ops", "count"),
    ("homalg.self_s", "s"),
    ("homalg.hom_space_calls", "count"),
    ("homalg.hom_space_s", "s"),
    ("homalg.radical_basis_calls", "count"),
    ("homalg.radical_basis_s", "s"),
    ("homalg.is_indecomposable_calls", "count"),
    ("homalg.brute_decompose_calls", "count"),
    ("homalg.summands", "count"),
)


class Tracer:
    """Records spans for the wrapped callables of one process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.request = 0
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original value)

    def name_index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name, start, end, value=None):
        """Add a finished top-level span, such as interpreter start-up."""
        self.spans.append((self.name_index(name), start, end, -1, self.request, value))

    def wrap(self, name, fn):
        idx = self.name_index(name)
        value_of = VALUES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = value_of(result) if value_of and result is not None else None
                spans[slot] = (idx, start, end, parent, self.request, value)

        return traced

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        if len(self._stack) != 1:
            raise RuntimeError("spans taken while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out

    def install(self):
        """Wrap every target wherever a clannish module refers to it."""
        import clannish

        modules = [
            importlib.import_module("clannish." + info.name)
            for info in pkgutil.iter_modules(clannish.__path__)
        ]
        for name, modname, attr in TARGETS:
            owner = sys.modules["clannish." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self.wrap(name, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        """Put back every callable that ``install`` wrapped."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans."""
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(names, spans):
    """Per-layer sums over one batch of spans: every metric of LAYER_METRICS
    except the ratio, which ``combine`` works out."""
    own = self_times(spans)
    calls, self_s, values = {}, {}, {}
    layer_s = {}
    summands = 0
    for span, t in zip(spans, own):
        name = names[span[0]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        layer = name.split(".")[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + t
        if span[5] is not None:
            values[name] = values.get(name, 0) + span[5]
            parent = span[3]
            if name == "homalg.brute_decompose" and (
                parent < 0 or names[spans[parent][0]] != name
            ):
                summands += span[5]

    def n(name):
        return calls.get(name, 0)

    return {
        "cli.startup_s": self_s.get(STARTUP, 0.0),
        "serialize.load_s": self_s.get("serialize.representation_from_json", 0.0),
        "words.enumerate_s": layer_s.get("words", 0.0),
        "words.enumerate_calls": n("words.enumerate_strings") + n("words.enumerate_bands"),
        "words.descriptors": values.get("filtration.candidate_descriptors", 0),
        "walks.rw_descriptor_s": self_s.get("walks.rw_descriptor", 0.0),
        "walks.rw_descriptor_calls": n("walks.rw_descriptor"),
        "filtration.self_s": layer_s.get("filtration", 0.0),
        "filtration.f_dim_calls": n("filtration.f_dim"),
        "filtration.f_dim_nonzero": values.get("filtration.f_dim", 0),
        "filtration.walk_plus_minus_calls": n("filtration.walk_plus_minus"),
        "relations.self_s": layer_s.get("relations", 0.0),
        "relations.image_calls": n("relations.image"),
        "relations.compose_calls": n("relations.compose"),
        "relations.stable_pair_calls": n("relations.stable_pair"),
        "linalg.self_s": layer_s.get("linalg", 0.0),
        "linalg.rref_calls": n("linalg.rref"),
        "linalg.subspace_ops": sum(n(name) for name in SUBSPACE_OPS),
        "homalg.self_s": layer_s.get("homalg", 0.0),
        "homalg.hom_space_calls": n("homalg.hom_space"),
        "homalg.hom_space_s": self_s.get("homalg.hom_space", 0.0),
        "homalg.radical_basis_calls": n("homalg.radical_basis"),
        "homalg.radical_basis_s": self_s.get("homalg.radical_basis", 0.0),
        "homalg.is_indecomposable_calls": n("homalg.is_indecomposable"),
        "homalg.brute_decompose_calls": n("homalg.brute_decompose"),
        "homalg.summands": summands,
    }


def combine(parts):
    """Sum per-request layer metrics and add the useful-work ratio."""
    total = {}
    for part in parts:
        for key, val in part.items():
            total[key] = total.get(key, 0) + val
    calls = total.get("filtration.f_dim_calls", 0)
    total["filtration.useful_ratio"] = (
        total.get("filtration.f_dim_nonzero", 0) / calls if calls else 0.0
    )
    return total
