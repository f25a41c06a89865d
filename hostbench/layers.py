"""Outside-in layer tracing for the host benchmark.

Every layer of the ``repro`` package is measured from here, by wrapping
the public functions the pipeline calls into it — no ``src/`` file
knows it is being traced.  The force modules bind names at import
(``repro.bvh.force.build_flat_lists``, ``repro.octree.force.
build_interaction_lists``, ...), so a probe replaces the function in
its defining module *and* in every ``repro.*`` module that holds the
same object under that name; methods are replaced on their class.
:meth:`LayerTrace.installed` restores every original on exit.

A wrapped call records one :class:`Span`: name, start, end, parent
(the innermost open span) and a step or session id, inherited from the
parent when the probe names none.  Spans stay in memory; the runner
writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.simulation import STEP_ORDER
from repro.machine.costmodel import CostModel


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    sid: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """One wrapped call: ``module`` + ``attr`` (``Class.method`` for a
    method) and the span name.  ``sid(args)`` names the step or session
    the call belongs to; ``after(args, result)`` runs once it returned."""

    module: str
    attr: str
    span: str
    sid: Callable | None = None
    after: Callable | None = None


#: Per-layer metric -> span names whose *self* time it sums, reported
#: in seconds per simulation step.
SELF_TIME_METRICS = {
    "traversal.flat_expand_s": ("traversal.build_flat_lists",),
    "traversal.list_build_s": (
        "traversal.make_groups", "traversal.build_interaction_lists",
        "traversal.build_target_tree", "traversal.build_dual_lists"),
    "traversal.near_eval_s": ("traversal.evaluate_interaction_lists",
                              "traversal.evaluate_flat"),
    # evaluate_dual minus its near-field child: M2L, L2L and L2P.
    "traversal.far_eval_s": ("traversal.evaluate_dual",),
    "traversal.self_pairs_s": ("traversal.build_self_pairs",),
    "bvh.sort_s": ("bvh.hilbert_sort_permutation",),
    "bvh.assemble_s": ("bvh.assemble_bvh",),
    "octree.build_s": ("octree.build_octree_vectorized",),
    "octree.multipoles_s": ("octree.compute_multipoles_vectorized",),
    "maintenance.maintain_s": ("maintenance.maintain_bvh",
                               "maintenance.maintain_octree",
                               "maintenance.finish_step"),
}

#: Per-layer metric -> span names whose *inclusive* time it sums, in
#: seconds per session step: a serve or io call is charged with the
#: simulation work it drives.
INCLUSIVE_TIME_METRICS = {
    "serve.quantum_s": ("serve.run_quantum",),
    "serve.materialize_s": ("serve.materialize",),
    "serve.cache_store_s": ("serve.cache_store",),
    "serve.cache_lookup_s": ("serve.cache_lookup",),
    "serve.admit_s": ("serve.admit",),
    "io.save_s": ("io.save_checkpoint",),
    "io.load_s": ("io.load_checkpoint",),
}

#: Spans that make up one serve session's host time.
SESSION_SPANS = ("serve.materialize", "serve.run_quantum", "serve.suspend")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {name: "s/step" for name in SELF_TIME_METRICS}
    units.update({name: "s/step" for name in INCLUSIVE_TIME_METRICS})
    units.update({
        "traversal.flat_expand_calls": "count",
        "traversal.evals_per_expansion": "ratio",
        "traversal.list_build_calls": "count",
        "traversal.n3l_dedup_ratio": "ratio",
        "traversal.interactions_per_step": "count/step",
        "maintenance.refit_fraction": "ratio",
        "maintenance.lists_dropped": "count",
        "serve.cache_hit_rate": "ratio",
        "serve.session_s_p50": "s",
        "serve.session_s_tail": "s",
        "serve.overhead_frac": "ratio",
        "io.checkpoint_bytes": "B",
        "stdpar.kernel_launches_per_step": "count/step",
        "machine.model_step_s": "s/step",
        "obs.trace_overhead_frac": "ratio",
    })
    for phase in STEP_ORDER:
        units[f"core.phase.{phase}_s"] = "s/step"
        units[f"machine.model_over_host.{phase}"] = "ratio"
    return units


def tail_percentile(n: int) -> int:
    """Highest whole percentile of *n* samples with at least ten samples
    above it under numpy's linear interpolation (0 below 11 samples)."""
    return max(0, -(-100 * (n - 10) // (n - 1)) - 1) if n > 1 else 0


def tail(values) -> tuple[int, float]:
    """``(percentile, value)`` of the tail percentile of *values*."""
    p = tail_percentile(len(values))
    return p, float(np.percentile(values, p)) if len(values) else 0.0


class LayerTrace:
    """Span recorder plus the layer probes of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: (root span, refit/rebuild action, lists dropped) per maintain call.
        self.decisions: list[tuple[int, str, int]] = []
        self._dropped: dict[int, int] = {}
        #: Bytes of every in-memory checkpoint written.
        self.checkpoint_bytes: list[int] = []
        #: (simulation, StepReport) of every ``Simulation.advance`` call.
        self.advance_reports: list[tuple[object, object]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str, sid=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if sid is None and parent >= 0:
            sid = self.spans[parent].sid
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, sid))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(
                f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str, sid=None):
        index = self.begin(name, sid)
        try:
            yield index
        finally:
            self.end(index)

    def root_of(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Calls run one at a time on one thread, so children never
        overlap and cover exactly the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def records(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "sid": s.sid}
            for s in self.spans
        ]

    # ------------------------------------------------------------------
    def _after_maintain(self, args, result):
        maint = args[0]
        total = maint.counts["lists_dropped"]
        delta = total - self._dropped.get(id(maint), 0)
        self._dropped[id(maint)] = total
        self.decisions.append((self.root_of(len(self.spans) - 1),
                               maint.last_decision.action, delta))

    def _after_save(self, args, result):
        target = args[0]
        if hasattr(target, "getbuffer"):
            self.checkpoint_bytes.append(target.getbuffer().nbytes)

    def _after_advance(self, args, result):
        self.advance_reports.append((args[0], result))

    def probes(self) -> tuple[Probe, ...]:
        """Every wrapped call, grouped by layer."""
        session = lambda args: args[0].spec.name  # noqa: E731
        return (
            # repro.traversal
            Probe("repro.traversal.groups", "make_groups",
                  "traversal.make_groups"),
            Probe("repro.traversal.engine", "build_interaction_lists",
                  "traversal.build_interaction_lists"),
            Probe("repro.traversal.dual", "build_target_tree",
                  "traversal.build_target_tree"),
            Probe("repro.traversal.dual", "build_dual_lists",
                  "traversal.build_dual_lists"),
            Probe("repro.traversal.flat", "build_flat_lists",
                  "traversal.build_flat_lists"),
            Probe("repro.traversal.engine", "build_self_pairs",
                  "traversal.build_self_pairs"),
            Probe("repro.traversal.engine", "evaluate_interaction_lists",
                  "traversal.evaluate_interaction_lists"),
            Probe("repro.traversal.flat", "evaluate_flat",
                  "traversal.evaluate_flat"),
            Probe("repro.traversal.dual", "evaluate_dual",
                  "traversal.evaluate_dual"),
            # repro.bvh / repro.octree
            Probe("repro.bvh.build", "hilbert_sort_permutation",
                  "bvh.hilbert_sort_permutation"),
            Probe("repro.bvh.build", "assemble_bvh", "bvh.assemble_bvh"),
            Probe("repro.octree.build_vectorized", "build_octree_vectorized",
                  "octree.build_octree_vectorized"),
            Probe("repro.octree.multipoles", "compute_multipoles_vectorized",
                  "octree.compute_multipoles_vectorized"),
            # repro.maintenance
            Probe("repro.maintenance.maintainer",
                  "TreeMaintainer.maintain_bvh", "maintenance.maintain_bvh",
                  after=self._after_maintain),
            Probe("repro.maintenance.maintainer",
                  "TreeMaintainer.maintain_octree",
                  "maintenance.maintain_octree", after=self._after_maintain),
            Probe("repro.maintenance.maintainer", "TreeMaintainer.finish_step",
                  "maintenance.finish_step"),
            # repro.serve
            Probe("repro.serve.admission", "AdmissionController.offer",
                  "serve.admit", sid=lambda args: args[1].name),
            Probe("repro.serve.session", "Session.materialize",
                  "serve.materialize", sid=session),
            Probe("repro.serve.session", "Session.run_quantum",
                  "serve.run_quantum", sid=session),
            Probe("repro.serve.session", "Session.suspend", "serve.suspend",
                  sid=session),
            Probe("repro.serve.cache", "SharedStructureCache.lookup",
                  "serve.cache_lookup"),
            Probe("repro.serve.cache", "SharedStructureCache.store",
                  "serve.cache_store"),
            # repro.io
            Probe("repro.io", "save_checkpoint", "io.save_checkpoint",
                  after=self._after_save),
            Probe("repro.io", "load_checkpoint", "io.load_checkpoint"),
            # repro.core
            Probe("repro.core.simulation", "Simulation.advance",
                  "core.advance", after=self._after_advance),
        )

    def _wrap(self, fn, probe: Probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(
                probe.span, probe.sid(args) if probe.sid is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if probe.after is not None:
                probe.after(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every probe's call sites for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        wrapped: dict[int, tuple[object, object]] = {}
        try:
            for probe in self.probes():
                module = importlib.import_module(probe.module)
                owner_name, _, name = probe.attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[name]
                    setattr(owner, name, self._wrap(original, probe))
                    undo.append((owner, name, original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(original, probe)
                wrapped[id(wrapper)] = (wrapper, original)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.startswith("repro")
                            and getattr(mod, name, None) is original):
                        setattr(mod, name, wrapper)
                        undo.append((mod, name, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            # A module first imported while the probes were live bound
            # a wrapper at its own import: restore that binding too.
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    entry = wrapped.get(id(value))
                    if entry is not None and value is entry[0]:
                        setattr(mod, name, entry[1])


def _model_for(sim, cache: dict) -> CostModel:
    key = (sim.ctx.device.name, sim.ctx.toolchain)
    if key not in cache:
        cache[key] = CostModel(sim.ctx.device, toolchain=sim.ctx.toolchain)
    return cache[key]


def layer_metrics(trace: LayerTrace, *, roots: set[int], steps: int,
                  reports, overhead_frac: float,
                  drain_seconds: float | None = None,
                  cache_hit_rate: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of the spans under *roots* (the measured window).

    *reports* are the ``(simulation, StepReport)`` pairs of the window's
    steps; *steps* the simulation steps they cover.  *drain_seconds* is
    given for a serve drain, whose host time the serve metrics split.
    """
    per_step = 1.0 / max(steps, 1)
    selfs = trace.self_seconds()
    in_window = [i for i in range(len(trace.spans))
                 if trace.root_of(i) in roots]
    self_by: dict[str, float] = {}
    incl_by: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in in_window:
        name = trace.spans[i].name
        self_by[name] = self_by.get(name, 0.0) + selfs[i]
        incl_by[name] = incl_by.get(name, 0.0) + trace.spans[i].seconds
        calls[name] = calls.get(name, 0) + 1

    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = per_step * sum(self_by.get(n, 0.0) for n in names)
    for metric, names in INCLUSIVE_TIME_METRICS.items():
        out[metric] = per_step * sum(incl_by.get(n, 0.0) for n in names)

    expansions = calls.get("traversal.build_flat_lists", 0)
    out["traversal.flat_expand_calls"] = expansions
    out["traversal.evals_per_expansion"] = (
        calls.get("traversal.evaluate_flat", 0) / expansions
        if expansions else 0.0)
    out["traversal.list_build_calls"] = (
        calls.get("traversal.build_interaction_lists", 0)
        + calls.get("traversal.build_dual_lists", 0))

    # Step reports: counters, host phase seconds, modeled phase seconds.
    host = dict.fromkeys(STEP_ORDER, 0.0)
    model = dict.fromkeys(STEP_ORDER, 0.0)
    totals: dict[str, float] = {}
    models: dict = {}
    for sim, rep in reports:
        for phase, seconds in rep.seconds.items():
            host[phase] = host.get(phase, 0.0) + seconds
        for phase, seconds in _model_for(sim, models).step_times(
                rep.counters).items():
            model[phase] = model.get(phase, 0.0) + seconds
        for field, value in rep.counters.total().as_dict().items():
            totals[field] = totals.get(field, 0.0) + value
    naive = totals.get("near_pairs_naive", 0.0)
    evaluated = totals.get("near_pairs_evaluated", 0.0)
    out["traversal.n3l_dedup_ratio"] = naive / evaluated if evaluated else 0.0
    out["traversal.interactions_per_step"] = (
        per_step * totals.get("list_eval_interactions", 0.0))
    out["stdpar.kernel_launches_per_step"] = (
        per_step * totals.get("kernel_launches", 0.0))
    for phase in STEP_ORDER:
        out[f"core.phase.{phase}_s"] = per_step * host[phase]
        out[f"machine.model_over_host.{phase}"] = (
            model[phase] / host[phase] if host[phase] > 0 else 0.0)
    out["machine.model_step_s"] = per_step * sum(model.values())

    actions = [a for root, a, _ in trace.decisions if root in roots]
    out["maintenance.refit_fraction"] = (
        actions.count("refit") / len(actions) if actions else 0.0)
    out["maintenance.lists_dropped"] = sum(
        d for root, _, d in trace.decisions if root in roots)

    sessions: dict[object, float] = {}
    for i in in_window:
        s = trace.spans[i]
        if s.name in SESSION_SPANS:
            sessions[s.sid] = sessions.get(s.sid, 0.0) + s.seconds
    times = list(sessions.values())
    out["serve.session_s_p50"] = statistics.median(times) if times else 0.0
    out["serve.session_s_tail"] = tail(times)[1]
    out["serve.cache_hit_rate"] = cache_hit_rate
    out["serve.overhead_frac"] = (
        1.0 - incl_by.get("core.advance", 0.0) / drain_seconds
        if drain_seconds else 0.0)
    out["io.checkpoint_bytes"] = (
        statistics.mean(trace.checkpoint_bytes)
        if trace.checkpoint_bytes else 0.0)
    out["obs.trace_overhead_frac"] = overhead_frac
    return out
