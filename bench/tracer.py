"""Opt-in tracing of the library's layers from outside the library.

`Tracer` replaces every public function of the traced modules, in every
module namespace that binds it, with a timing wrapper.  Calls a module
makes through its own globals (spectral.solve -> spectral.criterion) or
through names it imported (cli -> spectral.solve) are therefore caught.
Spans (name, start, end, parent) are kept in memory; self time and counts
are derived afterwards.  A handful of tiny, very hot helpers get a
call counter instead of a span.  Leaving the context restores the
original functions.
"""

from __future__ import annotations

import collections
import functools
import json
import time
import types

LAYERS = ("cli", "indexsets", "system", "interp", "matrices", "spectral")

# Called per monomial or per index: a span each would cost more than they do.
COUNT_ONLY = frozenset(
    {
        "system.monomial_eval",
        "indexsets.add_unit",
        "indexsets.sub_unit",
        "indexsets.grlex_key",
        "indexsets.total_degree",
    }
)


class Tracer:
    """Install timing wrappers on enter, restore the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._hooks = {
            "spectral.semisimplicity": self._on_semisimplicity,
            "spectral.solve": self._on_solve,
        }

    def modules(self):
        return [self.package] + [getattr(self.package, layer) for layer in LAYERS]

    def targets(self):
        """(module, attribute, function, traced name) for every binding to wrap."""
        layer_modules = {f"{self.package.__name__}.{layer}" for layer in LAYERS}
        out = []
        for mod in self.modules():
            for attr, obj in sorted(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ in layer_modules
                ):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    out.append((mod, attr, obj, name))
        return out

    def __enter__(self):
        wrappers = {}
        try:
            for mod, attr, fn, name in self.targets():
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def reset(self):
        """Forget recorded spans and counts (the wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, fn, name):
        counts = self.counts
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                counts[name] += 1
            if hook is not None:
                hook(result)
            return result

        return spanned

    def _on_semisimplicity(self, report):
        # one SVD per eigenvalue cluster
        self.counts["spectral.clusters"] += len(report.clusters)

    def _on_solve(self, solution):
        self.counts["spectral.generic"] += solution.strategy.startswith("generic")

    def write(self, path, extra=None):
        """Write the recorded spans and their per-function summary as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        summary = summarize(self.spans)
        obj = {
            **(extra or {}),
            "functions": {
                name: {"calls": calls, "total_s": total, "self_s": self_}
                for name, (calls, total, self_) in sorted(summary.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": [[name, s - t0, e - t0, p] for name, s, e, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(obj, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def group_time(spans, names) -> float:
    """Time inside any span named in `names`, not counting nested ones twice."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def summarize(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive time of outermost calls, self time)."""
    selfs = self_times(spans)
    calls = collections.Counter(s[0] for s in spans)
    own = collections.defaultdict(float)
    for span, self_ in zip(spans, selfs):
        own[span[0]] += self_
    return {name: (calls[name], group_time(spans, {name}), own[name]) for name in calls}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, out_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)

    def self_of(pred):
        return sum(t for span, t in zip(spans, selfs) if pred(span[0]))

    def total(*names):
        return group_time(spans, set(names))

    indexsets = {s[0] for s in spans if layer_of(s[0]) == "indexsets"}
    solves = counts["spectral.solve"]
    return {
        "cli.self_s": self_of(lambda n: layer_of(n) == "cli"),
        "cli.out_bytes": out_bytes,
        "indexsets.s": total(*indexsets),
        "system.parse.s": total("system.parse_system"),
        "system.serialize.s": total("system.serialize_system", "system.system_to_json"),
        "system.residual.s": total("system.residual"),
        "system.residual.calls": counts["system.residual"],
        "system.monomial_eval.calls": counts["system.monomial_eval"],
        "interp.poisedness.calls": counts["interp.poisedness"],
        "interp.vandermonde.calls": counts["interp.vandermonde"],
        "interp.poisedness.s": total("interp.poisedness"),
        "interp.system_from_nodes.self_s": self_of(lambda n: n == "interp.system_from_nodes"),
        "matrices.build_family.s": total("matrices.build_family"),
        "matrices.commutation.s": total("matrices.commutation_report"),
        "spectral.eigen.s": total("spectral.eigen"),
        "spectral.eigen.calls": counts["spectral.eigen"],
        "spectral.criterion.s": total("spectral.criterion"),
        "spectral.semisimplicity.s": total("spectral.semisimplicity"),
        "spectral.clusters": counts["spectral.clusters"],
        "spectral.solve.self_s": self_of(lambda n: n == "spectral.solve"),
        "spectral.generic_frac": counts["spectral.generic"] / solves if solves else 0.0,
    }
