"""In-memory span recorder for the traced benchmark run.

Spans are kept as (name, start, end, parent) rows and counters as named
sums; both are written out when the run ends.  The recorder wraps the
public functions of each symjacobi module at every name a caller looks
them up by: the defining module, every sibling module that imported the
name with ``from .x import name``, and the package namespace.  Nothing
under ``src/`` is edited.  A span's self time is its duration minus the
time covered by its child spans, so the self times of the seven layers and
of the round's root span (the benchmark's own code) add up to the round.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "quadrature", "basis", "kernels", "operators", "estimates", "cli")

# Entry points that the per-layer metrics read.  A name that a later refactor
# removes is reported as missing; the run goes on and its metrics read 0.
NAMED_ENTRY_POINTS = (
    "core.trig_poly_table",
    "quadrature.gauss_jacobi_rule",
    "quadrature.ball_measure",
    "basis.analyze",
    "basis.synthesize",
    "basis.phi_table",
    "kernels.poisson_kernel_series",
    "kernels.poisson_kernel_dk",
    "kernels.poisson_kernel_dk_auto",
    "kernels.n_max_for",
    "operators.gfun_apply",
    "operators.maximal_apply",
    "operators.multiplier_apply",
    "estimates.run_standard_ladders",
    "estimates.FamilyBatch.profiles",
    "estimates.pair_grid",
    "estimates.lemma_samplers",
    "estimates.exact_lemma_report",
    "estimates.ap_constant",
    "cli.main",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span and counter store for one process.  Single-threaded by design:
    the benchmark pins symjacobi to one thread and drives it from one."""

    def __init__(self):
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous round; wrappers stay."""
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.rule_keys: set = set()

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function and public method of each layer module,
        rebinding the wrapper wherever the original object is bound."""
        layers = {
            layer: sys.modules[f"{package.__name__}.{layer}"]
            for layer in LAYERS
            if f"{package.__name__}.{layer}" in sys.modules
        }
        wrappers = {}  # id(original function) -> wrapper; the originals stay alive
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrapper(name, obj, HOOKS.get(name))
                    self.wrapped.append(name)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        setattr(obj, meth, self._wrapper(name, fn, HOOKS.get(name)))
                        self.wrapped.append(name)
        for mod in (package, *layers.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        self.missing = [n for n in NAMED_ENTRY_POINTS if n not in self.wrapped]

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def busy_times(self) -> dict[str, float]:
        """Busy time per span name, counting only outermost spans of a name so
        recursion is not counted twice."""
        out: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            p, nested = parent, False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def dump(self, path, extra: dict) -> None:
        """Write spans, counters and the missing entry points as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc.update(
            names=names,
            spans=[[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans],
            counters=self.counters,
            missing=self.missing,
        )
        with open(path, "w") as fh:
            json.dump(doc, fh)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last == "ms_per_pair":
        return "ms"
    if last == "output_bytes":
        return "B"
    if last.endswith("ratio") or last in ("cpu_per_wall", "steps"):
        return "ratio"
    return "count"


# -- counters taken from arguments and return shapes --------------------------


def _trig_poly_table(tr, args, kwargs, result):
    tr.count("core.trig_poly_table.cells", float(getattr(result, "size", 0)))


def _gauss_jacobi_rule(tr, args, kwargs, result):
    key = (
        float(_arg(args, kwargs, 0, "alpha")),
        float(_arg(args, kwargs, 1, "beta")),
        int(_arg(args, kwargs, 2, "n")),
    )
    tr.rule_keys.add(key)


def _poisson_kernel_dk(tr, args, kwargs, result):
    if tr.inside("kernels.poisson_kernel_dk_auto"):
        tr.count("kernels.poisson_kernel_dk_auto.inner_calls")


def _n_max_for(tr, args, kwargs, result):
    tr.count("kernels.n_max_for.modes", float(result))


def _profiles(tr, args, kwargs, result):
    import numpy as np

    n = int(np.atleast_2d(_arg(args, kwargs, 1, "pairs")).shape[0])
    refine = int(_arg(args, kwargs, 3, "refine", 1))
    tr.count("estimates.FamilyBatch.profiles.pairs" if refine == 1 else
             "estimates.FamilyBatch.profiles.refined_pairs", float(n))


def _pair_grid(tr, args, kwargs, result):
    if tr.inside("estimates.run_standard_ladders"):
        tr.count("estimates.pair_grid.ladder_pairs", float(len(result)))


HOOKS = {
    "core.trig_poly_table": _trig_poly_table,
    "quadrature.gauss_jacobi_rule": _gauss_jacobi_rule,
    "kernels.poisson_kernel_dk": _poisson_kernel_dk,
    "kernels.n_max_for": _n_max_for,
    "estimates.FamilyBatch.profiles": _profiles,
    "estimates.pair_grid": _pair_grid,
}
