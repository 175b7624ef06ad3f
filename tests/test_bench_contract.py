"""The benchmark's calls into diagcoag still work.

``perfbench/workloads.py`` runs the workloads through the layers' public
functions and traces them by attribute name; these tests import it as it is
and run one item per workload, so a change that drops or renames an API the
benchmark calls fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, inputs


def test_trace_points_exist(bench):
    workloads, _ = bench
    for module, attr, *_ in workloads.TRACE_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# One item per workload, two for deep_tail: cell (0.99, 0.9) ends, before its
# seed, in the error its reference records; cell (0.8, 0.9) marches its tail.
ITEMS = {
    "sweep15": ("sweep15", lambda inputs: inputs.grid_cells("sweep15")[0]),
    "deep_tail": ("deep_tail", lambda inputs: inputs.Cell(0.99, 0.9)),
    "deep_tail-marching": ("deep_tail", lambda inputs: inputs.Cell(0.8, 0.9)),
    "roundtrip": ("roundtrip", lambda inputs: inputs.grid_cells("sweep15")[0]),
    "collapse": ("collapse", lambda inputs: inputs.Perturbation(0.0, 0.0)),
}


@pytest.mark.parametrize("name", list(ITEMS))
def test_one_item_per_workload_is_correct(bench, tmp_path, name):
    workloads, inputs = bench
    workload, item = ITEMS[name]
    state = workloads.prepare(workload, tmp_path)
    out = workloads.run_item(state, item(inputs))
    assert out.correct, out.failed
