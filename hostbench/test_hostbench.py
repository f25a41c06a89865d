"""Self-test of the host benchmark at tiny N.

Run from the repository root with ``python -m pytest hostbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare()
import harness  # noqa: E402
import layers  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    w = harness.WORKLOADS[name]
    if isinstance(w, harness.SimWorkload):
        return dataclasses.replace(w, n=400, trace_steps=3)
    mix = tuple((dataclasses.replace(cls, n=64 + 32 * i, steps=2), count // 2)
                for i, (cls, count) in enumerate(w.mix))
    return dataclasses.replace(w, mix=mix)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def workload(request):
    return tiny(request.param)


@pytest.fixture(scope="module")
def traced(workload):
    return workload.trace(seed=3)


def test_benchmark_file_names_the_emitted_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(
        run.WORKLOAD_NAMES)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == harness.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer.items() <= layers.per_layer_units().items()


def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = workload.measure(seed=3, seconds=0.1)
    assert result.correct, result.checks
    assert result.failed == 0 and result.attempted >= 1
    for name in harness.E2E_UNITS:
        value = result.metrics[name]
        assert math.isfinite(value) and value > 0, name


def test_traced_run_emits_every_per_layer_metric(traced):
    assert traced.correct, traced.checks
    for name in layers.per_layer_units():
        assert math.isfinite(traced.metrics[name]), name


def test_spans_nest(traced):
    spans = traced.trace.spans
    assert spans
    for i, s in enumerate(spans):
        assert s.start <= s.end, s.name
        if s.parent >= 0:
            p = spans[s.parent]
            assert s.parent < i
            assert p.start <= s.start and s.end <= p.end, (p.name, s.name)


def test_layer_self_times_fit_in_wall_time(traced):
    trace = traced.trace
    assert min(trace.self_seconds()) >= -1e-9
    wall = traced.notes["traced_wall_s"]
    steps = traced.notes.get("traced_steps") or traced.notes["session_steps"]
    layer_self = steps * sum(traced.metrics[m]
                             for m in layers.SELF_TIME_METRICS)
    assert layer_self <= wall


def test_probes_are_removed_after_the_traced_run(traced):
    import repro.bvh.force
    import repro.octree.force
    import repro.traversal.flat

    for fn in (repro.bvh.force.build_flat_lists,
               repro.octree.force.build_interaction_lists,
               repro.traversal.flat.evaluate_flat):
        assert not hasattr(fn, "__wrapped__")


def test_expansions_per_evaluation_follow_the_maintenance_policy():
    rebuild = tiny("galaxy-rebuild").trace(seed=5).metrics
    refit = tiny("plummer-refit").trace(seed=5).metrics
    assert rebuild["traversal.evals_per_expansion"] == 1.0
    assert refit["traversal.evals_per_expansion"] > 1.0


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    for n in (11, 12, 32, 200):
        values = list(range(n))
        p, value = layers.tail(values)
        assert sum(v > value for v in values) >= 10
        assert sum(v > np.percentile(values, p + 1) for v in values) < 10


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "serve-mixed", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
