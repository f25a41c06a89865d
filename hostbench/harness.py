"""Workloads of the host benchmark: inputs, timed runs, correctness.

Two kinds of workload share one interface.  ``measure(seed, seconds)``
is the untraced run that yields the end-to-end metrics; ``trace(seed)``
runs a fixed amount of the same work twice — untraced, then with every
layer probe of :mod:`layers` installed — checks that both end in the
same final state, and derives the per-layer metrics from the spans.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# ``import repro.maintenance`` on its own fails with a circular
# ImportError (maintenance.drift -> bvh -> traversal.dual ->
# maintenance.drift); the simulation module imports the packages in an
# order that works, so it goes first.
import repro.core.simulation  # noqa: F401  (import order)
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.physics.accuracy import relative_l2_error
from repro.physics.gravity import GravityParams, pairwise_accelerations
from repro.serve import RequestClass, SessionServer, generate_traffic
from repro.serve.session import WORKLOADS as GENERATORS
from repro.serve.session import Session, final_state_digest

from layers import LayerTrace, layer_metrics, tail

#: Plummer softening of the CLI's ``run`` command.
GRAVITY = GravityParams(softening=0.05)
#: Independent inputs per simulation run: the near-field pair count of
#: one N=20000 galaxy collision moves by up to ~12% with its seed (8.1M
#: to 10.2M pairs, 2.4 to 2.7 s per step, over the three instances of
#: seed 108), so a run steps several and reports pooled figures.
SIM_INSTANCES = 5
#: Server cold starts timed per run; ``setup_s`` is their median.
SERVER_SETUP_REPEATS = 5
#: Bodies per force-accuracy sample (the relative error is dominated by
#: a few bodies, so small samples make it jump from seed to seed).
ERROR_SAMPLE = 1024
#: ``step_s_tail`` needs at least ten steps above its percentile.
MIN_TIMED_STEPS = 11

#: End-to-end metrics (untraced run) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "step_s_p50": "s",
    "step_s_tail": "s",
    "body_steps_per_s": "1/s",
    "force_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    """What one run measured and whether its outputs were correct."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool]
    notes: dict = field(default_factory=dict)
    trace: LayerTrace | None = None

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# ``Simulation`` has no public accessor for the accelerations at the
# current state; its integrator keeps them between steps.
def force_error(sim: Simulation, seed: int) -> float:
    """Relative L2 error of the simulation's current accelerations on a
    seeded body sample, against the exact all-pairs sum."""
    system = sim.system
    rng = np.random.default_rng([seed, system.n])
    targets = np.sort(rng.choice(system.n, size=min(ERROR_SAMPLE, system.n),
                                 replace=False))
    ref = pairwise_accelerations(system.x, system.m, sim.config.gravity,
                                 targets=targets, tile=128)
    return relative_l2_error(sim._integrator.accel[targets], ref)


def error_limit(config: SimulationConfig) -> float:
    """The tree codes' accuracy envelope used throughout the tests."""
    return 0.25 * config.theta


def finite_accel(sim: Simulation) -> bool:
    return bool(np.isfinite(sim._integrator.accel).all())


@contextmanager
def after_each_quantum(hook):
    """Call ``hook(session, sim, seconds, steps)`` after every
    ``Session.run_quantum``; *sim* is the simulation the quantum ran on
    (the session drops it once it is done)."""
    original = Session.run_quantum

    def timed(session, quantum_steps):
        sim, before = session.sim, session.steps_done
        t0 = time.perf_counter()
        cost = original(session, quantum_steps)
        hook(session, sim, time.perf_counter() - t0,
             session.steps_done - before)
        return cost

    Session.run_quantum = timed
    try:
        yield
    finally:
        Session.run_quantum = original


# ----------------------------------------------------------------------
# One simulation, stepped
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimWorkload:
    name: str
    generator: str
    n: int
    config: SimulationConfig
    #: Steps of each pass of the traced run (fixed, so counts repeat).
    trace_steps: int

    def instance_seeds(self, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(2**31 - 1, size=SIM_INSTANCES)]

    def system(self, seed: int):
        return GENERATORS[self.generator](self.n, seed=seed)

    def measure(self, seed: int, seconds: float) -> Result:
        """Construct and step each instance in turn for an equal share of
        *seconds* (at least enough steps for ``step_s_tail``); a step is
        not started if one like the last would end past the share."""
        setups, times, errors = [], [], []
        nonfinite = faults = 0
        min_steps = -(-MIN_TIMED_STEPS // SIM_INSTANCES)
        for sub in self.instance_seeds(seed):
            system = self.system(sub)
            t0 = time.perf_counter()
            sim = Simulation(system, self.config)
            setups.append(time.perf_counter() - t0)
            steps = 0
            deadline = time.perf_counter() + seconds / SIM_INSTANCES
            last = 0.0
            while steps < min_steps or time.perf_counter() + last <= deadline:
                f0, t0 = minor_faults(), time.perf_counter()
                sim.run(1)
                last = time.perf_counter() - t0
                times.append(last)
                faults += minor_faults() - f0
                steps += 1
                nonfinite += not finite_accel(sim)
            errors.append(force_error(sim, sub))
            sim = system = None  # free this instance before the next
            gc.collect()
        rss = peak_rss_mb()
        wall = sum(times)
        tail_p, tail_s = tail(times)
        return Result(
            metrics={
                "setup_s": statistics.median(setups),
                "step_s_p50": statistics.median(times),
                "step_s_tail": tail_s,
                "body_steps_per_s": self.n * len(times) / wall,
                "force_rel_err": statistics.mean(errors),
                "peak_rss_mb": rss,
            },
            attempted=len(times),
            failed=nonfinite,
            checks={
                "finite_acceleration_every_step": nonfinite == 0,
                "force_rel_err_within_0.25_theta":
                    max(errors) <= error_limit(self.config),
            },
            notes={"instances": SIM_INSTANCES, "timed_steps": len(times),
                   "step_s_tail_percentile": tail_p, "step_s_each": times,
                   "minor_faults_per_step": faults / len(times),
                   "setup_s_each": setups, "force_rel_err_each": errors},
        )

    def _untraced_pass(self, system) -> tuple[float, str]:
        sim = Simulation(system.copy(), self.config)
        seconds = 0.0
        for _ in range(self.trace_steps):
            t0 = time.perf_counter()
            sim.run(1)
            seconds += time.perf_counter() - t0
        digest = final_state_digest(sim.system)
        sim = None
        gc.collect()
        return seconds, digest

    def trace(self, seed: int) -> Result:
        """The first instance of :meth:`measure` for ``trace_steps``:
        untraced, traced, untraced again (the overhead compares the
        traced pass with the mean of the two around it)."""
        system = self.system(self.instance_seeds(seed)[0])
        before, reference = self._untraced_pass(system)

        trace = LayerTrace()
        roots: set[int] = set()
        reports = []
        nonfinite = 0
        with trace.installed():
            with trace.span("setup"):
                sim = Simulation(system.copy(), self.config)
            for k in range(self.trace_steps):
                with trace.span("step", sid=k) as root:
                    sim.run(1)
                roots.add(root)
                reports.append((sim, sim.last_report))
                nonfinite += not finite_accel(sim)
        digest = final_state_digest(sim.system)
        sim = None
        gc.collect()
        after, repeat = self._untraced_pass(system)
        untraced = 0.5 * (before + after)
        traced = sum(trace.spans[i].seconds for i in roots)
        metrics = layer_metrics(
            trace, roots=roots, steps=self.trace_steps, reports=reports,
            overhead_frac=traced / untraced - 1.0)
        return Result(
            metrics=metrics,
            attempted=self.trace_steps,
            failed=nonfinite,
            checks={
                "finite_acceleration_every_step": nonfinite == 0,
                "traced_digest_equals_untraced":
                    digest == reference == repeat,
            },
            notes={"traced_steps": self.trace_steps,
                   "traced_wall_s": traced, "untraced_wall_s": untraced},
            trace=trace,
        )


# ----------------------------------------------------------------------
# A session server draining seeded traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    name: str
    #: (request class, sessions of it) — a fixed mix, so seeds vary the
    #: initial conditions, not the amount of work.  Tenants take the
    #: sessions round-robin in this order.
    mix: tuple[tuple[RequestClass, int], ...]
    tenants: int
    max_resident: int

    def traffic_seeds(self, seed: int):
        """Seeds of the successive traffic sets a run drains: drain time
        moves by up to ~20% with one set's initial conditions (they
        steer the scheduler, and so the suspend count), so every drain
        of a run gets a fresh set."""
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(2**31 - 1))

    def specs(self, seed: int):
        """Every session offered at modeled time 0 (a closed batch)."""
        rng = np.random.default_rng(seed)
        specs = []
        for cls, count in self.mix:
            specs += generate_traffic(
                seed=int(rng.integers(2**31 - 1)), tenants=1,
                sessions_per_tenant=count, classes=[cls])
        specs = [dataclasses.replace(s, tenant=f"tenant-{i % self.tenants}")
                 for i, s in enumerate(specs)]
        return sorted(specs, key=lambda s: (s.arrival, s.tenant, s.name))

    def server(self, **overrides) -> SessionServer:
        kwargs = {"max_resident": self.max_resident, "shared_cache": True}
        kwargs.update(overrides)
        return SessionServer(**kwargs)

    def cold_start(self, specs) -> float:
        """Seconds to construct a server and make one session of each
        request class resident (its first tree build and force
        evaluation)."""
        t0 = time.perf_counter()
        server = self.server()
        for cls, _ in self.mix:
            spec = next(s for s in specs if s.name.endswith("-" + cls.name))
            Session(spec, server=server).materialize()
        return time.perf_counter() - t0

    def _reference(self, specs, seed: int):
        """One session per class, served resident and unshared: final
        digests, force errors and finiteness of the final states."""
        rng = np.random.default_rng([seed, 1])
        subset = []
        for cls, _ in self.mix:
            of_class = [s for s in specs if s.name.endswith("-" + cls.name)]
            subset.append(of_class[int(rng.integers(len(of_class)))])
        finals: dict[str, Simulation] = {}

        def keep_final(session, sim, seconds, steps):
            if session.done:
                finals[session.spec.name] = sim

        with after_each_quantum(keep_final):
            res = self.server(max_resident=None, shared_cache=False).run(
                subset)
        digests = {r["name"]: r["result"] for r in res.sessions}
        errors = [force_error(finals[s.name], seed) for s in subset]
        within = all(e <= error_limit(s.config)
                     for e, s in zip(errors, subset))
        return (digests, errors, within,
                all(map(finite_accel, finals.values())))

    def measure(self, seed: int, seconds: float) -> Result:
        traffic = self.traffic_seeds(seed)
        first = next(traffic)
        setups = [self.cold_start(self.specs(first))
                  for _ in range(SERVER_SETUP_REPEATS)]

        # One timer around each quantum gives per-step host times; the
        # layer probes stay off.
        quanta: list[float] = []
        nonfinite = 0

        def on_quantum(session, sim, seconds, steps):
            nonlocal nonfinite
            quanta.append(seconds / steps)
            nonfinite += not finite_accel(sim)

        drains = []  # (seconds, traffic seed, ServeResult)
        suspends = []
        offered = failed = 0
        accounted = True
        with after_each_quantum(on_quantum):
            deadline = time.perf_counter() + seconds
            sub = first
            while not drains or time.perf_counter() < deadline:
                specs = self.specs(sub)
                server = self.server()
                t0 = time.perf_counter()
                res = server.run(specs)
                drains.append((time.perf_counter() - t0, sub, res))
                offered += len(specs)
                failed += len(specs) - res.completed
                accounted &= res.completed + len(res.rejected) == len(specs)
                suspends.append(int(sum(
                    server.tenant_metrics(t).counter("serve.suspends").value
                    for t in res.tenants)))
                server = None
                gc.collect()
                sub = next(traffic)
        rss = peak_rss_mb()

        errors = []
        same = within = finite = True
        for _, sub, res in drains:
            ref, errs, ok, fin = self._reference(self.specs(sub), sub)
            digests = {r["name"]: r["result"] for r in res.sessions}
            same &= all(digests.get(name) == d for name, d in ref.items())
            errors += errs
            within &= ok
            finite &= fin

        drain_s = sum(d[0] for d in drains)
        body_steps = sum(row["n"] * row["steps"]
                         for _, _, res in drains for row in res.sessions)
        tail_p, tail_s = tail(quanta)
        return Result(
            metrics={
                "setup_s": statistics.median(setups),
                "step_s_p50": statistics.median(quanta),
                "step_s_tail": tail_s,
                "body_steps_per_s": body_steps / drain_s,
                "force_rel_err": statistics.mean(errors),
                "peak_rss_mb": rss,
            },
            attempted=offered,
            failed=failed,
            checks={
                "every_session_completed_or_rejected": accounted,
                "no_session_rejected_or_unfinished": failed == 0,
                "finite_acceleration_every_quantum": nonfinite == 0,
                "sampled_digests_equal_resident_unshared": same,
                "reference_final_states_finite": finite,
                "force_rel_err_within_0.25_theta": within,
            },
            notes={"drains": len(drains), "drain_s": [d[0] for d in drains],
                   "suspends_each_drain": suspends,
                   "timed_quanta": len(quanta),
                   "step_s_tail_percentile": tail_p,
                   "setup_s_each": setups, "force_rel_err_each": errors},
        )

    def _untraced_drain(self, specs) -> tuple[float, list[str]]:
        server = self.server()
        t0 = time.perf_counter()
        res = server.run(specs)
        seconds = time.perf_counter() - t0
        server = None
        gc.collect()
        return seconds, [r["result"] for r in res.sessions]

    def trace(self, seed: int) -> Result:
        """The first drain of :meth:`measure`: untraced, traced, untraced
        again (the overhead compares the traced drain with the mean of
        the two around it)."""
        specs = self.specs(next(self.traffic_seeds(seed)))
        before, reference = self._untraced_drain(specs)

        trace = LayerTrace()
        with trace.installed():
            with trace.span("setup"):
                server = self.server()
            with trace.span("serve.drain") as root:
                res = server.run(specs)
        after, repeat = self._untraced_drain(specs)
        untraced = 0.5 * (before + after)
        traced = trace.spans[root].seconds
        metrics = layer_metrics(
            trace, roots={root}, steps=res.total_steps,
            reports=trace.advance_reports,
            overhead_frac=traced / untraced - 1.0, drain_seconds=traced,
            cache_hit_rate=res.cache["hit_rate"] if res.cache else 0.0)
        failed = len(specs) - res.completed
        return Result(
            metrics=metrics,
            attempted=len(specs),
            failed=failed,
            checks={
                "every_session_completed_or_rejected":
                    res.completed + len(res.rejected) == len(specs),
                "no_session_rejected_or_unfinished": failed == 0,
                "traced_digests_equal_untraced":
                    [r["result"] for r in res.sessions]
                    == reference == repeat,
            },
            notes={"session_steps": res.total_steps,
                   "traced_wall_s": traced, "untraced_wall_s": untraced},
            trace=trace,
        )


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
def _serve_config(algorithm: str, tree_update: str) -> SimulationConfig:
    return SimulationConfig(algorithm=algorithm, traversal="grouped",
                            group_size=16, tree_update=tree_update,
                            gravity=GRAVITY)


WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            name="galaxy-rebuild", generator="galaxy", n=20000,
            config=SimulationConfig(
                algorithm="bvh", traversal="grouped", tree_update="rebuild",
                eval_mode="auto", gravity=GRAVITY),
            trace_steps=3),
        SimWorkload(
            name="plummer-refit", generator="plummer", n=10000,
            config=SimulationConfig(
                algorithm="octree", traversal="dual", tree_update="refit",
                eval_mode="auto", gravity=GRAVITY),
            trace_steps=10),
        ServeWorkload(
            name="serve-mixed",
            # ``traffic.default_classes`` at 4x its N: the same steps
            # (4/8/6) and 3:1:1 weights, as 20/6/6 of 32 sessions.
            mix=(
                (RequestClass("interactive", "plummer", n=768, steps=4,
                              config=_serve_config("bvh", "rebuild")), 20),
                (RequestClass("batch", "galaxy", n=1536, steps=8,
                              config=_serve_config("octree", "refit")), 6),
                (RequestClass("sweep", "cube", n=1024, steps=6,
                              config=_serve_config("bvh", "rebuild")), 6),
            ),
            tenants=4, max_resident=2),
    )
}
