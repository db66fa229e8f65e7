"""Per-layer tracing for the hampack benchmark, installed from outside the package.

Each target is a public function of one hampack module.  `Tracer.install`
replaces every binding of that function object in the loaded hampack modules
(the defining module's attribute and each `from .x import name` copy, such as
`hampack.packer.sample_scheme`) with a wrapper that records one span per
call: name, start, end, parent span and workload run id.  Spans stay in
memory; `write` dumps them once the run ends.  `uninstall` restores the
original bindings.

`Hypergraph.has_edge` is deliberately not a target: it is called millions of
times and its work is counted from outputs instead.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# (module, function, itemized).  Itemized functions get `.s`, `.calls` and
# `.self_s` metrics of their own; the self time of the others (entry points
# that only orchestrate) is reported as their module's `<module>.self_s`.
TARGETS: tuple[tuple[str, str, bool], ...] = (
    ("cli", "main", False),
    ("hypercore", "read_hypergraph", True),
    ("hypercore", "degree_report", True),
    ("constructions", "random_hypergraph", True),
    ("reduction", "sample_scheme", True),
    ("reduction", "build_aux_graph", True),
    ("reduction", "lift_matching", True),
    ("reduction", "canonicalize", True),
    ("reduction", "verify_cycle", True),
    ("packer", "pack_min_degree", False),
    ("packer", "pack_near_regular", False),
    ("packer", "assign_edges", True),
    ("bifactor", "max_factor", True),
    ("bifactor", "find_factor", True),
    ("bifactor", "peel_matchings", True),
    ("randomlab", "factor_robustness_sweep", False),
    ("randomlab", "factor_robustness_trial", False),
    ("randomlab", "random_subgraph", True),
)

ITEMIZED = tuple(f"{mod}.{fn}" for mod, fn, itemized in TARGETS if itemized)
REMAINDER_LAYERS = tuple(dict.fromkeys(mod for mod, _, itemized in TARGETS if not itemized))

# Counts read from return values, so that no inner hot loop needs a wrapper.
OBSERVERS: dict[str, Callable[[Counter, Any], None]] = {
    "bifactor.find_factor":
        lambda counts, result: counts.update(feasible=result is not None),
    "randomlab.random_subgraph":
        lambda counts, result: counts.update(kept_edges=len(result.edges)),
}

WRAPPED_MARK = "__perfbench_wrapped__"


def resolve() -> dict[str, Optional[Callable]]:
    """Map each target name to its function, or None when the module lacks it."""
    found = {}
    for mod, fn, _ in TARGETS:
        module = importlib.import_module(f"hampack.{mod}")
        found[f"{mod}.{fn}"] = getattr(module, fn, None)
    return found


def _bindings():
    """(module, attribute, value) for every global of every loaded hampack module."""
    for modname, module in sorted(sys.modules.items()):
        if module is not None and (modname == "hampack" or modname.startswith("hampack.")):
            for attr, value in list(vars(module).items()):
                yield module, attr, value


def binding_sites(func: Callable) -> list[tuple[Any, str]]:
    """Every (module, attribute) of a loaded hampack module bound to `func`."""
    return [(module, attr) for module, attr, value in _bindings() if value is func]


def installed_wrappers() -> list[str]:
    """Names of hampack module attributes currently bound to a tracing wrapper."""
    return [f"{module.__name__}.{attr}" for module, attr, value in _bindings()
            if getattr(value, WRAPPED_MARK, False)]


class Tracer:
    """Span recorder; use as a context manager around traced calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []        # [name, start, end, parent index, run id]
        self.counts: defaultdict[Optional[str], Counter] = defaultdict(Counter)
        self.run_id: Optional[str] = None
        self.missing: list[str] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for name, func in resolve().items():
            if func is None:
                self.missing.append(name)
                print(f"warning: trace target {name} not found; its metrics are null",
                      file=sys.stderr)
                continue
            wrapper = self._wrap(name, func)
            sites = binding_sites(func)
            self.sites[name] = [f"{m.__name__}.{a}" for m, a in sites]
            for module, attr in sites:
                self._patches.append((module, attr, func))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts[self.run_id], result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def layer_times(self, run_ids: set[str]) -> dict[str, dict[str, float]]:
        """Inclusive time, self time and call count per target over `run_ids`.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent, run) in enumerate(self.spans):
            if run not in run_ids:
                continue
            rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[idx]
            rec["calls"] += 1
        return out

    def write(self, path: str) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "run"],
               "spans": self.spans, "sites": self.sites, "missing": self.missing,
               "counts": {str(run): dict(c) for run, c in self.counts.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
