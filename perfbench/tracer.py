"""Spans around the calls into each weilrep layer, installed from outside the
package.

A wrapper is installed on every name a caller actually looks up: each
``weilrep`` module global bound to the target function (so the binding that
``from .symp import centralizer_torus`` left in ``catmap`` is wrapped along
with ``symp.centralizer_torus``), or the class attribute for a method.  Spans
stay in memory; ``layer_totals`` aggregates them and ``span_records`` turns
them into plain data for writing out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    item: str | None  # the benchmark item (one prime or one verification call)
    nested: bool  # an enclosing span has the same name
    built: bool = False  # the call grew the instance's operator cache


@dataclass(frozen=True)
class Target:
    """One function to trace.  ``attr`` is ``"func"`` for a module function
    or ``"Class.method"`` for a method (``"Class.__init__"`` times the
    constructor).  ``variant(args)`` appends a suffix to the span name;
    ``cache(args)`` returns a container whose growth marks the span built."""

    name: str
    module: str
    attr: str
    variant: Callable | None = None
    cache: Callable | None = None


def _field_kind(ctx) -> str:
    return "prime" if ctx.m == 1 else "ext"


#: the layer boundaries the benchmark times; metric names are ``<name>.calls``
#: and ``<name>.self_s`` (plus ``.built`` and ``.nested`` for weil_op)
LAYER_TARGETS = (
    Target("gfq.factor_poly", "weilrep.gfq", "factor_poly"),
    Target("gfq.poly_gcd", "weilrep.gfq", "poly_gcd"),
    Target("fqlin.det", "weilrep.fqlin", "det"),
    Target("fqlin.inv", "weilrep.fqlin", "inv"),
    Target("symp.rank_from_charpoly", "weilrep.symp", "rank_from_charpoly"),
    Target("symp.centralizer_torus", "weilrep.symp", "centralizer_torus"),
    Target("symp.module_structure", "weilrep.symp", "module_structure"),
    Target("symp.build_maximal_torus", "weilrep.symp", "build_maximal_torus"),
    Target("heiwei.WeilRep", "weilrep.heiwei", "WeilRep.__init__"),
    Target("heiwei.weil_op", "weilrep.heiwei", "WeilRep.weil_op",
           cache=lambda args: args[0]._cache),
    Target("heiwei.char_phase_table", "weilrep.heiwei", "WeilRep.char_phase_table",
           variant=lambda args: _field_kind(args[0].ctx)),
    Target("heiwei.wigner_batch", "weilrep.heiwei", "WeilRep.wigner_batch"),
    Target("heiwei.pi_op", "weilrep.heiwei", "WeilRep.pi_op"),
    Target("heiwei.restrict_to_extension", "weilrep.heiwei", "restrict_to_extension"),
    Target("spectra.decompose", "weilrep.spectra", "decompose"),
    Target("sums.c_chi_table", "weilrep.sums", "c_chi_table",
           variant=lambda args: _field_kind(args[0].ctx)),
    Target("sums.orbit_spans_space", "weilrep.sums", "orbit_spans_space"),
    Target("sums.bound_report", "weilrep.sums", "bound_report"),
    Target("catmap.HeckeContext", "weilrep.catmap", "HeckeContext.__init__"),
    Target("catmap.hecke_que_experiment", "weilrep.catmap", "hecke_que_experiment"),
    Target("catmap.statistical_state_experiment", "weilrep.catmap",
           "statistical_state_experiment"),
    Target("catmap.rank_density_sweep", "weilrep.catmap", "rank_density_sweep"),
    Target("catmap.skip_reason", "weilrep.catmap", "skip_reason"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.item: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: every name a wrapper was installed on, as "module.name" or
        #: "module.Class.method"; kept after uninstall for the run record
        self.bindings: set[str] = set()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        nested = any(self.spans[i].name == name for i in self._open)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.item, nested))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if self._open[-1] != index:
            raise RuntimeError("spans must end in the reverse order they began")
        self._open.pop()
        self.spans[index].end = self.clock()

    def wrap(self, fn, name: str, variant=None, cache=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if variant is None else f"{name}.{variant(args)}"
            before = len(cache(args)) if cache is not None else 0
            index = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
                if cache is not None:
                    self.spans[index].built = len(cache(args)) > before
                return result
            finally:
                self.end(index)

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets=LAYER_TARGETS) -> None:
        """Wrap every target where its callers look it up.  Only weilrep
        modules imported so far are searched for bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in targets:
            module = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(original, t.name, t.variant, t.cache))
                continue
            original = getattr(module, t.attr)
            wrapper = self.wrap(original, t.name, t.variant, t.cache)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "weilrep" or mod_name.startswith("weilrep.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, "__dict__")[key]))
        setattr(owner, key, wrapper)
        where = f"{owner.__module__}.{owner.__name__}" if isinstance(owner, type) else owner.__name__
        self.bindings.add(f"{where}.{key}")

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# -- aggregation -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap in a single thread)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, self_s, built and nested counts."""
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "built": 0, "nested": 0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["built"] += span.built
        agg["nested"] += span.nested
    return out


def span_records(spans: list[Span], t0: float = 0.0) -> list[list]:
    """[name, start, end, parent, item] rows, times relative to ``t0``."""
    return [
        [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.item]
        for s in spans
    ]
