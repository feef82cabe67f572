"""Span tracer for the traced benchmark run.

Wraps the public functions of telegate's ``catalog``, ``patterns``,
``oracle``, ``tables``, ``reports`` and ``cli`` modules from outside the
package, records one span per call together with the id of the span that
was open when the call started, and counts work from the calls' return
values. When the job ends the spans are folded into per-layer self times
(span minus its children) and the counters. The tracer's own work inside
each span (its bookkeeping before and after the traced call) is recorded
with the span, kept out of every self time and reported as the tracing
overhead.
"""
from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass

TRACED_MODULES = ("catalog", "patterns", "oracle", "tables", "reports", "cli")

# Oracle functions are split into the stages the benchmark reports; the
# rest of the oracle (experiments, variant selection, key formatting) is
# "oracle.other".
ORACLE_LAYERS = {
    "derive_corrections": "oracle.derive",
    "derive_corrections_with_failures": "oracle.derive",
    "probe_inputs": "oracle.derive",
    "decompose_monomial": "oracle.decompose_monomial",
    "correction_dictionary": "oracle.dictionary",
    "outcome_maps": "oracle.outcome_maps",
    "verify_pattern": "oracle.verify",
    "default_inputs": "oracle.verify",
    "detect_information_loss": "oracle.loss",
    "compare_tables": "oracle.compare_tables",
}
MODULE_LAYERS = {
    "catalog": "catalog.build",
    "tables": "tables.build",
    "reports": "reports.render",
    "cli": "cli.self",
}
ZERO_NORM = 1e-12  # oracle.ZERO_PROB: outcome maps below this norm count as zero


def layer_of(module: str, name: str) -> str:
    """The reported layer of function ``name`` defined in ``module``."""
    if module == "oracle":
        return ORACLE_LAYERS.get(name, "oracle.other")
    if module == "patterns":
        return "patterns.validate" if name == "validate_pattern" else "patterns.other"
    return MODULE_LAYERS.get(module, module)


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    start: float
    end: float = 0.0
    overhead: float = 0.0  # the tracer's own time inside this span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children and
    minus the tracer's overhead inside it.

    Spans come from one thread and nest properly, so children of one span
    never overlap and their durations add up to the part they cover.
    """
    covered: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] - span.overhead for span in spans}


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    totals: Counter = Counter()
    for span in spans:
        totals[span.layer] += own[span.id]
    return dict(totals)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []

    def begin(self, layer: str, start: float) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, layer, start)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, returned: float, called: float) -> None:
        """Close ``span``; the traced call ran from ``called`` to ``returned``."""
        span.end = self.clock()
        span.overhead = (called - span.start) + (span.end - returned)
        self._open.pop()

    def inside(self, prefix: str) -> bool:
        """Whether an open span belongs to a layer starting with ``prefix``."""
        return any(s.layer.startswith(prefix) for s in self._open)

    def wrap(self, module: str, name: str, fn):
        """``fn`` with a span around every call and the counters of its layer."""
        layer = layer_of(module, name)
        cache_info = getattr(fn, "cache_info", None)
        watch_rss = name in ("outcome_maps", "verify_pattern")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = self.clock()
            outermost = not self.inside(module + ".")
            under_derive = self.inside("oracle.derive")
            under_loss = self.inside("oracle.loss")
            span = self.begin(layer, entered)
            misses = cache_info().misses if cache_info else 0
            rss = _max_rss_mb() if watch_rss else 0.0
            if module == "catalog" and outermost:
                self.counts["catalog.builds"] += 1
            elif name == "validate_pattern":
                self.counts["patterns.validate_calls"] += 1
            called = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(span, self.clock(), called)
                if name == "validate_pattern":
                    self.counts["patterns.validate_rejects"] += 1
                raise
            returned = self.clock()
            if watch_rss:
                self.counts[f"{layer}_rss_growth_mb"] += _max_rss_mb() - rss
            if cache_info:
                built = cache_info().misses - misses
                self.counts["oracle.dictionary_builds"] += built
                if built:
                    self.counts["oracle.dictionary_ops"] += len(result.ops)
            self._count(module, name, result, outermost, under_derive, under_loss)
            self.end(span, returned, called)
            return result

        return traced

    def _count(self, module, name, result, outermost, under_derive, under_loss) -> None:
        c = self.counts
        if module == "reports" and outermost and isinstance(result, str):
            c["reports.bytes_out"] += len(result.encode("utf-8"))
        elif name == "derive_corrections_with_failures":
            table, failures = result
            c["oracle.derive_outcomes"] += len(table)
            c["oracle.derive_unrepairable"] += len(failures)
        elif name == "decompose_monomial":
            c["oracle.derive_monomial"] += result is not None
        elif name == "verify_pattern":
            c["oracle.verify_cells"] += result.fidelities.size
        elif name == "compare_tables":
            c["oracle.compare_cells"] += result.total
        elif name == "outcome_maps":
            c["oracle.outcome_maps_calls"] += 1
            c["oracle.outcomes"] += len(result)
            if under_loss:
                c["oracle.loss_outcomes"] += len(result)
            if under_derive:
                c["oracle.derive_zero_maps"] += sum(
                    1 for m in result.values() if (m.ravel().conj() @ m.ravel()).real < ZERO_NORM**2
                )

    def summary(self) -> dict[str, float]:
        """Per-layer self times (``<layer>_s``), counters, the span count and
        the tracer's own time (``trace.overhead_s``)."""
        out: dict[str, float] = {f"{layer}_s": t for layer, t in layer_self_times(self.spans).items()}
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = sum(span.overhead for span in self.spans)
        return out


def install(tracer: Tracer, package: str = "telegate") -> int:
    """Replace every public function of the traced modules, in every loaded
    module of ``package`` that binds it, with one traced wrapper.

    A function re-exported elsewhere (``validate_pattern`` in ``catalog``,
    ``outcome_maps`` in the package root) gets the same wrapper, and calls
    between functions of one module go through module globals, so they are
    traced too. Returns the number of functions wrapped.
    """
    wrapped: dict[int, object] = {}
    for modname, module in list(sys.modules.items()):
        if module is None or (modname != package and not modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            origin = getattr(value, "__module__", None) or ""
            short = origin.rpartition(".")[2]
            if (
                attr.startswith("_")
                or isinstance(value, type)
                or not callable(value)
                or not origin.startswith(package + ".")
                or short not in TRACED_MODULES
            ):
                continue
            if id(value) not in wrapped:
                wrapped[id(value)] = tracer.wrap(short, value.__name__, value)
            setattr(module, attr, wrapped[id(value)])
    return len(wrapped)
