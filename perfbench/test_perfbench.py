"""Tests of the benchmark's own logic.

Run from the root of a source checkout:  python3 -m pytest perfbench -q
"""

import json
import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 3.0, parent=0),
        spans.Span("b", 2.0, 4.0, parent=0),  # overlaps a: counted once
        spans.Span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        spans.Span("grandchild", 8.5, 9.0, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 3.5, 0.5])


def test_tracer_records_nesting_item_and_error_class():
    tracer = spans.Tracer(typed_error=KeyError)
    inner = tracer.wrap_span("inner", lambda x: {}[x])
    outer = tracer.wrap_span("outer", lambda x: inner(x))
    with pytest.raises(KeyError):
        with tracer.item("item", "0.0:cell"):
            outer("missing")
    root, out_span, in_span = tracer.spans
    assert (out_span.parent, in_span.parent) == (0, 1)
    assert {s.item for s in tracer.spans} == {"0.0:cell"}
    assert (in_span.error, in_span.error_typed) == ("KeyError", True)
    assert all(s.end >= s.start for s in tracer.spans)


def test_installed_wraps_and_restores_module_attributes():
    mod = types.SimpleNamespace(f=lambda: 1, g=lambda: 2)
    original_f, original_g = mod.f, mod.g
    tracer = spans.Tracer()
    points = [(mod, "f", "mod.f", "span"), (mod, "g", "mod.g", "count")]
    with spans.installed(tracer, points):
        assert (mod.f(), mod.g(), mod.g()) == (1, 2, 2)
    assert (mod.f, mod.g) == (original_f, original_g)
    assert [s.name for s in tracer.spans] == ["mod.f"]
    assert tracer.counts["mod.g"] == 2


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_items(workload):
    def first_passes(seed):
        it = inputs.passes(workload, seed)
        return [next(it) for _ in range(3)]

    assert first_passes(7) == first_passes(7)
    assert first_passes(7) != first_passes(8)


@pytest.mark.parametrize("workload", inputs.PROFILE_WORKLOADS)
def test_each_profile_pass_visits_every_cell_once(workload):
    cells = inputs.grid_cells(workload)
    it = inputs.passes(workload, 3)
    for _ in range(4):
        batch = next(it)
        assert sorted(batch, key=lambda c: c.key) == sorted(cells, key=lambda c: c.key)


def test_collapse_starts_unperturbed_and_draws_bounded_bumps():
    it = inputs.passes("collapse", 11)
    first, second = next(it), next(it)
    assert first[0].a == 0.0 and len(first) == len(second) == inputs.COLLAPSE_PASS
    bumps = first[1:] + second
    assert all(0.0 < abs(p.a) <= inputs.PERTURB_AMPLITUDE for p in bumps)
    lo, hi = inputs.PERTURB_CENTRE
    assert all(lo <= p.c <= hi for p in bumps)


def test_percentile_matches_numpy_linear_method():
    rng = random.Random(5)
    xs = [rng.expovariate(1.0) for _ in range(137)]
    for p in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p), rel=1e-12)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90.0) == 10
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(19) is None
    assert stats.min_samples(90.0) == 100
    for p in stats.TAIL_PERCENTILES:
        n = stats.min_samples(p)
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND > stats.samples_beyond(n - 1, p)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    outcomes = [workloads.Outcome("x", residual=1e-9)]
    per_layer = layers.per_layer_metrics(tracer, outcomes, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()
    ]
    timed = run.Run()
    timed.outcomes, timed.durations, timed.speed = outcomes, [0.01], [1.0]
    end_to_end = run.end_to_end_metrics(timed, 0.5)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == sorted(
        (name, unit) for name, (_, unit) in end_to_end.items()
    )
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
