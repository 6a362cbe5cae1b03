"""Span tracing of sensecluster's layer boundaries, from outside the package.

``install`` replaces each traced public function with a wrapper in every
``sensecluster`` module that holds a reference to it, which covers both
``runner``'s ``from .x import f`` names and its ``module.f`` lookups, and
``em.fit_from``'s lookup of ``e_step``. No source file is edited.

A span is ``(name, start, end, parent, run_id)``; spans stay in memory
and are returned once, when the traced run is over. Results that feed a
digest are kept by reference and digested only after the run, so the
digest work lands outside every span.
"""

import functools
import hashlib
import sys
import time

# (module, function) pairs that get a span; the span name is "module.function"
SPANNED = (
    ("runner", "run"),
    ("corpus", "load_corpus"),
    ("features", "build_schema"),
    ("features", "extract"),
    ("dissim", "build"),
    ("dissim", "row_vectors"),
    ("agglom", "mcquitty"),
    ("agglom", "ward"),
    ("em", "fit"),
    ("evaluate", "confusion_from_labels"),
    ("evaluate", "best_mapping"),
    ("evaluate", "not_significantly_below"),
)
# called once per EM iteration; counted only, so em.fit keeps its time
COUNTED = (("em", "e_step"),)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._cluster_results: list = []
        self._em_results: list = []

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name: str, result) -> None:
        if name == "dissim.build":
            self._add("dissim.bytes", result.n * result.n * 4)
        elif name.startswith("agglom."):
            self._add(f"{name}.merges", len(result.merges))
            self._cluster_results.append(result)
        elif name == "em.fit":
            self._add("em.iterations", result.iterations)
            self._add("em.converged", int(result.converged))
            self._em_results.append(result)

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            self.calls[name] = self.calls.get(name, 0) + 1
            self._observe(name, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a sensecluster module refers to it."""
        for wrap, table in ((self.span, SPANNED), (self.counter, COUNTED)):
            for module_name, fn_name in table:
                original = getattr(sys.modules[f"sensecluster.{module_name}"], fn_name)
                wrapped = wrap(f"{module_name}.{fn_name}", original)
                for name, module in list(sys.modules.items()):
                    if name == "sensecluster" or name.startswith("sensecluster."):
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapped)

    def result_digest(self) -> str:
        """Order-independent SHA-256 over every merge trace and EM assignment seen."""
        from sensecluster.agglom import merge_trace

        parts = [hashlib.sha256(merge_trace(r).encode()).hexdigest() for r in self._cluster_results]
        parts += [
            hashlib.sha256(" ".join(map(str, r.assignment.tolist())).encode()).hexdigest()
            for r in self._em_results
        ]
        return hashlib.sha256("\n".join(sorted(parts)).encode()).hexdigest()


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by its child spans.

    Spans come from one thread, so the children of a span never overlap
    and their summed duration is the time they cover.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals
