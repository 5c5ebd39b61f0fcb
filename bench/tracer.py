"""Span tracing of the sporbits modules, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules (and
the same function object wherever another module imported it) with a wrapper
that records a span: name, start, end, parent span and case id.  Self time is
a span's duration minus the time covered by its child spans.  Two hot paths
get cheaper treatment: `Polynomial.__mul__`/`__add__` are spans named
`polynomials.mul`/`polynomials.add`, and the key functions of term orders
built by `orders` constructors are only counted and timed (`orders.key`),
with their time charged to the enclosing span as child time.

Times come from the clock passed in: the benchmark passes CPU seconds of the
process without the speed sampler's share, the clock of its case times.
`uninstall` restores every patched attribute, so untraced passes in the
same process run the original code.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from collections import defaultdict

MODULES = (
    "permutations",
    "involutions",
    "pairperms",
    "polynomials",
    "orders",
    "groebner",
    "symplectic",
    "cli",
)

#: span whose direct children are split into the three degeneration phases
DEGENERATION = "symplectic.verify_degeneration"
GB_METHOD = "groebner.Ideal.groebner_basis"
#: counters the wrappers keep besides calls and self time of each span
COUNTERS = {
    "polynomials.mul.terms_out",
    "groebner.buchberger.basis_out",
    "orders.key.calls",
    "orders.key.self_s",
    "symplectic.degeneration.left_s",
    "symplectic.degeneration.right_s",
    "symplectic.degeneration.compare_s",
}
#: ratio metric -> (counter of useful outcomes, span whose calls are attempts)
RATIOS = {
    "groebner.normal_form.zero_ratio": ("groebner.normal_form.zero", "groebner.normal_form"),
    "groebner.gb_cache.hit_ratio": ("groebner.gb_cache.hits", GB_METHOD),
    "pairperms.hit_ratio": ("pairperms.conjugation_check.hits", "pairperms.conjugation_check"),
}


class Tracer:
    def __init__(self, clock, span_cap: int = 50_000):
        self.clock = clock
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.case: str | None = None
        self.names: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.reset()

    # -- per-pass state -----------------------------------------------------

    def reset(self) -> None:
        """Clear the aggregates (not the span records) before a pass."""
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: (case, left_s, right_s, compare_s) per verify_degeneration call
        self.phases: list[tuple[str | None, float, float, float]] = []
        self._stack: list[list] = []
        self._in_key = False

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        children = [] if name == DEGENERATION else None
        frame = [self._next_id, name, self.clock(), 0.0, children]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        span_id, name, start, child_time, children = frame
        self._stack.pop()
        duration = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            if parent[4] is not None:
                parent[4].append((name, start, end))
        if children is not None:
            self._record_phases(children)
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.case))
        else:
            self.dropped += 1

    def _record_phases(self, children: list[tuple[str, float, float]]) -> None:
        def phase(first: str, last: str, after: float):
            begin = next((c for c in children if c[0] == first and c[1] >= after), None)
            if begin is None:
                return None
            end = next((c for c in children if c[0] == last and c[1] >= begin[1]), None)
            return None if end is None else (begin[1], end[2])

        left = phase("symplectic.orbit_ideal", "groebner.initial_ideal", 0.0)
        right = left and phase("symplectic.union_schubert_ideal", "groebner.initial_ideal", left[1])
        if not right:
            return
        tail = [c for c in children if c[1] >= right[1] and c[0] in (GB_METHOD, "groebner.in_ideal")]
        compare = tail[-1][2] - tail[0][1] if tail else 0.0
        left_s, right_s = left[1] - left[0], right[1] - right[0]
        self.counters["symplectic.degeneration.left_s"] += left_s
        self.counters["symplectic.degeneration.right_s"] += right_s
        self.counters["symplectic.degeneration.compare_s"] += compare
        self.phases.append((self.case, left_s, right_s, compare))

    def _wrap(self, name: str, fn, post=None):
        tracer = self
        self.names.add(name)

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            return result if post is None else post(result)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _wrap_gb_method(self, fn):
        """Ideal.groebner_basis: a call that runs no buchberger is a cache hit."""
        tracer = self
        traced_fn = self._wrap(GB_METHOD, fn)

        def groebner_basis(ideal, *args, **kwargs):
            before = tracer.stats["groebner.buchberger"][0]
            result = traced_fn(ideal, *args, **kwargs)
            if tracer.stats["groebner.buchberger"][0] == before:
                tracer.counters["groebner.gb_cache.hits"] += 1
            return result

        groebner_basis.__wrapped__ = fn
        return groebner_basis

    def _wrap_key(self, key):
        """Count and time top-level calls of a term-order key function."""
        if getattr(key, "_bench_traced", False):
            return key
        tracer = self
        clock = self.clock

        def traced_key(mono):
            if tracer._in_key:
                return key(mono)
            tracer._in_key = True
            start = clock()
            try:
                return key(mono)
            finally:
                elapsed = clock() - start
                tracer._in_key = False
                tracer.counters["orders.key.calls"] += 1
                tracer.counters["orders.key.self_s"] += elapsed
                if tracer._stack:
                    tracer._stack[-1][3] += elapsed

        traced_key._bench_traced = True
        return traced_key

    # -- post hooks ---------------------------------------------------------

    def _post_order(self, order):
        if dataclasses.is_dataclass(order) and callable(getattr(order, "key", None)):
            return dataclasses.replace(order, key=self._wrap_key(order.key))
        return order

    def _post_mul(self, result):
        self.counters["polynomials.mul.terms_out"] += len(result.terms)
        return result

    def _post_buchberger(self, result):
        self.counters["groebner.buchberger.basis_out"] += len(result)
        return result

    def _post_normal_form(self, result):
        self.counters["groebner.normal_form.zero"] += result.is_zero()
        return result

    def _post_conjugation(self, result):
        self.counters["pairperms.conjugation_check.hits"] += bool(result)
        return result

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("sporbits")
        mods = {short: importlib.import_module(f"sporbits.{short}") for short in MODULES}
        posts = {
            "groebner.buchberger": self._post_buchberger,
            "groebner.normal_form": self._post_normal_form,
            "pairperms.conjugation_check": self._post_conjugation,
        }
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{short}.{obj.__name__}"
                    post = self._post_order if short == "orders" else posts.get(name)
                    replace[obj] = self._wrap(name, obj, post)
        for namespace in (package, *mods.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patch(namespace, attr, replace[obj])

        poly = mods["polynomials"].Polynomial
        methods = {
            vars(poly)["__mul__"]: self._wrap("polynomials.mul", vars(poly)["__mul__"], self._post_mul),
            vars(poly)["__add__"]: self._wrap("polynomials.add", vars(poly)["__add__"]),
        }
        for attr, obj in list(vars(poly).items()):
            if inspect.isfunction(obj) and obj in methods:
                self._patch(poly, attr, methods[obj])
        ideal = mods["groebner"].Ideal
        self._patch(ideal, "groebner_basis", self._wrap_gb_method(vars(ideal)["groebner_basis"]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def value(self, metric: str) -> float:
        """One per-layer metric of the current pass, by its benchmark name."""
        if metric in RATIOS:
            hits, span = RATIOS[metric]
            calls = self.stats[span][0]
            return self.counters[hits] / calls if calls else 0.0
        if metric in COUNTERS:
            return float(self.counters[metric])
        base, _, field = metric.rpartition(".")
        index = {"calls": 0, "self_s": 2}[field]
        if base in MODULES:
            total = sum(v[index] for k, v in self.stats.items() if k.split(".", 1)[0] == base)
            return float(total + (self.counters[f"orders.key.{field}"] if base == "orders" else 0))
        if base not in self.names:
            raise KeyError(f"no traced function named {base}")
        return float(self.stats[base][index])

    def table(self) -> dict[str, dict]:
        """calls / total / self seconds of every span name, for the results file."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in sorted(self.stats.items())
        }

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "case")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
