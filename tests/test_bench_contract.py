"""The benchmark's calls into diagcoag still work.

``perfbench/workloads.py`` runs the workloads through the layers' public
functions and traces them by attribute name; these tests import it as it is
and run every profile cell of ``sweep15`` and ``deep_tail``, every ``roundtrip``
cell and one ``collapse`` item through the benchmark's own check, so a change that drops
or renames an API the benchmark calls, or moves a ``d`` past the reference's
bound, fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import inputs
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


def test_trace_points_exist():
    for module, attr, *_ in workloads.TRACE_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _run(workload, item, tmp_path):
    out = workloads.run_item(workloads.prepare(workload, tmp_path), item)
    assert out.correct, out.failed


# Every profile cell: at (-1, 0.5), (-1, 0.7), (-1, 0.9) and (0, 0.9) the
# reference's bound on d lies below the discretization error of d, so a move of
# d in its last bits fails the benchmark; cell (0.99, 0.9) ends, before its
# seed, in the error its reference records.
PROFILE_CELLS = {
    f"{workload}-{cell.key}": (workload, cell)
    for workload in ("sweep15", "deep_tail")
    for cell in inputs.grid_cells(workload)
}


@pytest.mark.parametrize("name", list(PROFILE_CELLS))
def test_profile_cell_is_correct(tmp_path, name):
    _run(*PROFILE_CELLS[name], tmp_path)


ITEMS = {
    "collapse": ("collapse", inputs.Perturbation(0.0, 0.0)),
    # 7 of every 8 benchmark items are bumped fields: the first one of seed 1
    "collapse-perturbed": ("collapse", next(inputs.passes("collapse", 1))[1]),
}


@pytest.mark.parametrize("name", list(ITEMS))
def test_one_item_per_workload_is_correct(tmp_path, name):
    _run(*ITEMS[name], tmp_path)


@pytest.fixture(scope="module")
def roundtrip_state(tmp_path_factory):
    return workloads.prepare("roundtrip", tmp_path_factory.mktemp("roundtrip"))


# Every cell: the profile is written, read back bit for bit (h and the
# derivative column), and its tail report checked against the reference.
@pytest.mark.parametrize("cell", inputs.grid_cells("sweep15"), ids=lambda cell: cell.key)
def test_roundtrip_cell_is_correct(roundtrip_state, cell):
    out = workloads.run_item(roundtrip_state, cell)
    assert out.correct, out.failed
