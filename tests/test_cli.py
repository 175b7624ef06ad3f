import dataclasses
import json
import shlex
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from diagcoag import cli, dynamics, errors, pipeline, tail
from diagcoag.params import make_params
from diagcoag.profile import read_profile_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


# -- mu ------------------------------------------------------------------------


def test_mu_canonical(capsys):
    assert run(["mu", "--gamma", "0", "--beta", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["mu", "residual", "iterations", "bracket", "convexity_margin"]
    assert abs(out["mu"] - 1.0) <= 1e-12
    assert out["residual"] <= 1e-13


def test_mu_rho_equivalent(capsys):
    assert run(["mu", "--gamma", "0", "--beta", "2"]) == 0
    via_beta = capsys.readouterr().out
    assert run(["mu", "--gamma", "0", "--rho", "0.5"]) == 0
    via_rho = capsys.readouterr().out
    assert via_beta == via_rho


def test_mu_invalid_gamma(capsys):
    assert run(["mu", "--gamma", "1.5", "--beta", "2"]) == 2
    assert "gamma must be < 1" in capsys.readouterr().err


def test_mu_needs_exactly_one_of_beta_rho(capsys):
    assert run(["mu", "--gamma", "0"]) == 2
    assert run(["mu", "--gamma", "0", "--beta", "2", "--rho", "0.5"]) == 2


# -- profile ---------------------------------------------------------------------


def test_profile_full_pipeline(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert run(["profile", "--gamma", "0", "--rho", "0.5", "--out", str(out)]) == 0
    prof = read_profile_csv(out)
    assert prof.normalized
    assert prof.x_max / prof.x_min > 1e12
    assert np.all(np.diff(prof.h_values) < 0.0)
    meta = json.loads((tmp_path / "prof.meta.json").read_text())
    assert meta["normalized"] is True
    assert meta["m"] == 64


def test_profile_degenerate_refused(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert run(["profile", "--gamma", "0", "--beta", "1", "--out", str(out)]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_profile_degenerate_allowed(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code = run(
        ["profile", "--gamma", "0", "--beta", "1", "--allow-degenerate", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


def test_profile_constant_branch(tmp_path, capsys):
    out = tmp_path / "const.csv"
    assert run(["profile", "--gamma", "0", "--beta", "2", "--c", "0", "--out", str(out)]) == 0
    prof = read_profile_csv(out)
    assert np.all(prof.h_values == 2.0)


def test_profile_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["profile", "--gamma", "0", "--rho", "0.5", "--out", str(a)]) == 0
    assert run(["profile", "--gamma", "0", "--rho", "0.5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.0, "rho": 0.5, "m": 64}))
    out = tmp_path / "from_config.csv"
    # flag overrides config: rho 0.5 in config, but we pass beta via flag only
    assert run(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_profile_json_format(tmp_path, capsys):
    out = tmp_path / "prof.json"
    assert run(
        ["profile", "--gamma", "0", "--rho", "0.5", "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "x", "h", "g", "dhdx"}


def test_profile_json_meta_is_params_plus_sidecar(tmp_path, capsys):
    as_json = tmp_path / "prof.json"
    as_csv = tmp_path / "prof.csv"
    flags = ["profile", "--gamma", "0", "--rho", "0.5"]
    assert run(flags + ["--format", "json", "--out", str(as_json)]) == 0
    assert run(flags + ["--out", str(as_csv)]) == 0
    meta = json.loads(as_json.read_text())["meta"]
    sidecar = json.loads((tmp_path / "prof.meta.json").read_text())
    expected = {**make_params(0.0, 2.0).to_dict(), **sidecar}
    assert meta == expected
    assert list(meta) == list(expected)


# -- verify ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "canon.csv"
    assert run(["profile", "--gamma", "0", "--rho", "0.5", "--out", str(path)]) == 0
    return path


def test_verify_fresh_profile(saved_profile, capsys):
    assert run(["verify", str(saved_profile)]) == 0
    report = json.loads(capsys.readouterr().out)[str(saved_profile)]
    assert report["slope_fit"] == pytest.approx(-0.5, abs=0.005)
    assert report["upper_bound_ok"] and report["lower_bound_ok"]
    assert report["max_residual_sss4b"] <= 1e-6
    assert list(report) == [f.name for f in dataclasses.fields(tail.TailReport)] + ["details"]
    assert list(report["details"]) == [
        "degenerate", "upper_margin", "n_nodes_checked", "c0", "lower_margin",
        "lower_margin_chain", "lower_chain_ok", "hineq_margin", "hineq_ok", "d_converged",
        "slope_err_rel",
    ]
    assert report["details"]["slope_err_rel"] <= 0.01


def test_verify_corrupted_profile(saved_profile, tmp_path, capsys):
    rows = saved_profile.read_text().splitlines()
    k = len(rows) // 2
    cols = rows[k].split(",")
    cols[1] = f"{float(cols[1]) * 1.01:.17g}"
    rows[k] = ",".join(cols)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    meta = saved_profile.with_name(saved_profile.stem + ".meta.json")
    (tmp_path / "bad.meta.json").write_text(meta.read_text())
    assert run(["verify", str(bad)]) == 4


def test_verify_and_sweep_share_the_bound_verdict(tmp_path, capsys):
    # beta < 2 beta_star: the stated c0/beta lower bound fails by design
    out = tmp_path / "rho07.csv"
    assert run(["profile", "--gamma", "0", "--rho", "0.7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out)]) == 4
    report = json.loads(capsys.readouterr().out)[str(out)]
    assert report["upper_bound_ok"] and not report["lower_bound_ok"]
    assert pipeline.sweep_row(0.0, 0.7)["status"] == "bound_failure"


def test_verify_constant_profile_precondition(tmp_path, capsys):
    out = tmp_path / "const.csv"
    assert run(["profile", "--gamma", "0", "--beta", "2", "--c", "0", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 2


def test_profile_beyond_the_octave_budget_exits_3_up_front(tmp_path, capsys):
    # beta = 100: the tail target needs more than 600 octaves for any d < 1
    out = tmp_path / "deep.csv"
    assert run(["profile", "--gamma", "0.9", "--beta", "100", "--out", str(out)]) == 3
    assert "tail extension would exceed 600 octaves" in capsys.readouterr().err
    assert not out.exists()


def test_profile_oversize_explicit_z_exits_3(tmp_path, capsys):
    # default_z is 0.25 here; an explicit --z is used as given, not halved
    out = tmp_path / "big_z.csv"
    argv = ["profile", "--gamma", "-1", "--beta", "2", "--z", "0.5", "--out", str(out)]
    assert run(argv) == 3
    assert "z=0.5 too large" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def subnormal_tail_profile(tmp_path_factory):
    # h ~ x^-2 reaches the subnormals, where successive nodes tie, before 1e200
    path = tmp_path_factory.mktemp("profiles") / "deg.csv"
    code = run(["profile", "--gamma", "-1", "--beta", "0.5", "--allow-degenerate",
                "--xmax", "1e200", "--out", str(path)])
    return code, path


def test_profile_march_stops_at_the_double_precision_floor(subnormal_tail_profile):
    code, path = subnormal_tail_profile
    assert code == 0
    prof = read_profile_csv(path)
    assert 1e150 < prof.x_max < 1e200
    assert prof.h_values[-1] <= 1e-250
    assert np.all(np.diff(prof.h_values[prof.x_values >= 1.0]) < 0.0)


def test_verify_overflowing_tail_estimate_is_typed(subnormal_tail_profile, capsys):
    # x_max**(1/beta) = x_max**2 overflows; a precondition of the tail suite
    code, path = subnormal_tail_profile
    assert code == 0
    capsys.readouterr()
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed" in err and "overflows" in err


# -- simulate --------------------------------------------------------------------


def test_simulate_profile_collapse(saved_profile, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(
        [
            "simulate",
            "--gamma", "0", "--rho", "0.5",
            "--init", f"profile:{saved_profile}",
            "--t-end", "2", "--snapshots", "3",
            "--octaves", "30",
            "--out", str(tmp_path / "sim"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "sim.collapse.json").read_text())
    assert list(report) == ["times", "distances", "window"]
    assert max(report["distances"]) < 0.05
    snaps = list(tmp_path.glob("sim.t*.csv"))
    assert len(snaps) == 3
    header = snaps[0].read_text().splitlines()[0]
    assert header == "xi,f,x_rescaled,density_rescaled"


def test_simulate_pulse_with_profile(saved_profile, tmp_path, capsys):
    # the collapse metric reads the pulse at its nodes; empty nodes are allowed
    code = run(
        [
            "simulate",
            "--gamma", "0", "--beta", "2",
            "--init", "pulse", "--profile", str(saved_profile),
            "--t-end", "1.2", "--snapshots", "2",
            "--octaves", "20",
            "--out", str(tmp_path / "pu"),
        ]
    )
    assert code == 0
    assert len(list(tmp_path.glob("pu.t*.csv"))) == 2
    report = json.loads((tmp_path / "pu.collapse.json").read_text())
    assert len(report["distances"]) == 2


def test_simulate_stationary_power_law(tmp_path, capsys):
    code = run(
        [
            "simulate",
            "--gamma", "0", "--beta", "2",
            "--init", "powerlaw",
            "--t-end", "1.2", "--snapshots", "2",
            "--octaves", "20",
            "--out", str(tmp_path / "pl"),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("init", ["pulse", "powerlaw"])
def test_simulate_snapshots_are_savetxt_bytes(init, tmp_path, capsys):
    # 40 octaves at md 16: 641 rows, one full chunk of the writer and a partial one
    kernel = make_params(0.0, 2.0).kernel
    code = run(["simulate", "--gamma", "0", "--beta", "2", "--init", init,
                "--t-end", "1.5", "--snapshots", "3", "--out", str(tmp_path / "s")])
    assert code == 0
    if init == "pulse":
        start = dynamics.pulse_field(kernel, 320, xi_min=2.0**-20)
    else:
        start = dynamics.power_law_field(kernel, 1.0, 1.5, xi_min=2.0**-20)
    fields = dynamics.evolve(start, 1.5, 3)
    if init == "pulse":
        assert np.any(fields[-1].f_values == 0.0)
    for fld in fields:
        xi, f = fld.xi_grid, fld.f_values
        table = np.column_stack([xi, f, xi / fld.t**2.0, fld.t ** 3.0 * f])
        expected = StringIO()
        np.savetxt(expected, table, fmt="%.17g", delimiter=",", comments="",
                   header="xi,f,x_rescaled,density_rescaled")
        written = (tmp_path / f"s.t{fld.t:.6g}.csv").read_bytes()
        assert written == expected.getvalue().encode()


# -- typed failures ----------------------------------------------------------------


def _break_row(text: str) -> str:
    rows = text.splitlines(keepends=True)
    rows[len(rows) // 2] = rows[len(rows) // 2].rsplit(",", 1)[0] + "\n"
    return "".join(rows)


def _non_numeric_cell(text: str) -> str:
    rows = text.splitlines(keepends=True)
    cols = rows[len(rows) // 2].split(",")
    cols[1] = "abc"
    rows[len(rows) // 2] = ",".join(cols)
    return "".join(rows)


# Malformed copies of a saved profile: (file to edit, edit of its text).
_MALFORMED = {
    "non-numeric cell": ("csv", _non_numeric_cell),
    "truncated row": ("csv", _break_row),
    "header only": ("csv", lambda text: text.splitlines(keepends=True)[0]),
    "sidecar not json": ("meta", lambda text: text[: len(text) // 2]),
    "sidecar missing key": ("meta", lambda text: text.replace('"m":', '"n":')),
    "sidecar m zero": ("meta", lambda text: text.replace('"m": 64', '"m": 0')),
    "three fields in every row": (
        "csv",
        lambda text: "".join(
            [text.splitlines(keepends=True)[0]]
            + [r.rsplit(",", 1)[0] + "\n" for r in text.splitlines()[1:]]
        ),
    ),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_verify_malformed_profile_exits_2(case, saved_profile, tmp_path, capsys, recwarn):
    which, edit = _MALFORMED[case]
    csv_text = saved_profile.read_text()
    meta_text = saved_profile.with_name(saved_profile.stem + ".meta.json").read_text()
    if which == "csv":
        csv_text = edit(csv_text)
    else:
        meta_text = edit(meta_text)
    path = tmp_path / "bad.csv"
    path.write_text(csv_text)
    (tmp_path / "bad.meta.json").write_text(meta_text)
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed profile" in err
    if case == "header only":
        assert "the table has no data rows" in err
    assert not recwarn.list


def test_simulate_window_off_grid_exits_2(saved_profile, tmp_path, capsys):
    # at t = 1e9 the rescaled pulse grid no longer overlaps the profile's
    code = run(
        [
            "simulate",
            "--gamma", "0", "--rho", "0.5",
            "--init", "pulse", "--profile", str(saved_profile),
            "--t-end", "1e9",
            "--out", str(tmp_path / "far"),
        ]
    )
    assert code == 2
    assert "do not overlap" in capsys.readouterr().err


def test_simulate_window_under_one_octave_exits_2(saved_profile, tmp_path, capsys):
    # 40 octaves at md = 16 leave about one node in the window at t = 1e6
    code = run(
        [
            "simulate",
            "--gamma", "0", "--rho", "0.5",
            "--init", "pulse", "--profile", str(saved_profile),
            "--t-end", "1e6",
            "--out", str(tmp_path / "far"),
        ]
    )
    assert code == 2
    assert "less than one" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("missing", ["csv", "sidecar"])
def test_verify_missing_profile_file_exits_2(saved_profile, tmp_path, capsys, missing):
    path = tmp_path / "copy.csv"
    if missing == "sidecar":
        path.write_bytes(saved_profile.read_bytes())
    else:
        meta = saved_profile.with_name(saved_profile.stem + ".meta.json")
        (tmp_path / "copy.meta.json").write_bytes(meta.read_bytes())
    assert run(["verify", str(path)]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("init", ["pulse:999999", "pulse:-3"])
def test_simulate_pulse_node_off_grid_exits_2(init, tmp_path, capsys):
    code = run(["simulate", "--gamma", "0", "--beta", "2", "--init", init,
                "--out", str(tmp_path / "pu")])
    assert code == 2
    assert "outside the grid" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("init", ["powerlaw:abc", "powerlaw:1", "pulse:x"])
def test_simulate_malformed_init_exits_2(init, tmp_path, capsys):
    code = run(["simulate", "--gamma", "0", "--beta", "2", "--init", init,
                "--out", str(tmp_path / "pl")])
    assert code == 2
    assert "malformed initial data spec" in capsys.readouterr().err


# Invalid inputs, each with the text by which its message names it.
_CANON = ["--gamma", "0", "--beta", "2"]
_INVALID_INPUTS = {
    "profile --m 16": (["profile", *_CANON, "--m", "16"], "got 16"),
    "profile --m 0": (["profile", *_CANON, "--m", "0"], "per octave; got 0"),
    "profile --z -1": (["profile", *_CANON, "--z", "-1"], "z must be positive; got -1"),
    "profile --c -1": (["profile", *_CANON, "--c", "-1"], "c must be nonnegative; got -1"),
    "sweep --gammas abc": (["sweep", "--gammas", "abc", "--rhos", "0.5"], "'abc'"),
    "config missing": (["profile", "--config", "nofile.json"], "'nofile.json'"),
    "config not JSON": (["profile", "--config", "text.json"], "'text.json': Expecting value"),
    "config array": (["profile", "--config", "array.json"], "'array.json' does not hold"),
    "simulate --md 0": (["simulate", *_CANON, "--md", "0"], "at least 1; got 0"),
    "simulate --md -4": (["simulate", *_CANON, "--md", "-4"], "at least 1; got -4"),
    "simulate --octaves -1": (["simulate", *_CANON, "--octaves", "-1"], "span: -1 octaves"),
    "simulate pulse --octaves -1": (
        ["simulate", *_CANON, "--init", "pulse", "--octaves", "-1"], "span: -1 octaves"
    ),
    "simulate --xi-min 0": (["simulate", *_CANON, "--xi-min", "0"], "xi_min must be positive"),
    "simulate --snapshots -1": (["simulate", *_CANON, "--snapshots", "-1"], "got 4 and -1"),
    "simulate --t-end 0": (["simulate", *_CANON, "--t-end", "0"], "got 0 and 5"),
}


@pytest.mark.parametrize("case", _INVALID_INPUTS)
def test_invalid_input_exits_2_naming_it(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "text.json").write_text("not json\n")
    (tmp_path / "array.json").write_text("[1, 2]\n")
    argv, named = _INVALID_INPUTS[case]
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["array.json", "text.json"]


def test_profile_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--gamma", "0", "--beta", "2", "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# Every package error and the exit code the cli docstring documents for it.
_ERROR_CODES = [
    (errors.DomainError, 2),
    (errors.WindowError, 2),
    (errors.BracketError, 3),
    (errors.ConvergenceError, 3),
    (errors.QuadratureError, 3),
    (errors.MonotonicityError, 3),
    (errors.PositivityError, 3),
    (errors.RangeError, 3),
    (errors.StepCollapseError, 5),
]


def test_error_code_table_lists_every_package_error():
    assert set(errors.DiagcoagError.__subclasses__()) == {e for e, _ in _ERROR_CODES}


@pytest.mark.parametrize("error, code", _ERROR_CODES, ids=lambda v: getattr(v, "__name__", v))
def test_every_package_error_has_its_exit_code(error, code, monkeypatch, capsys):
    def raise_it(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_mu", raise_it)
    assert run(["mu", "--gamma", "0", "--beta", "2"]) == code
    assert capsys.readouterr().err == "boom\n"


# -- sweep -----------------------------------------------------------------------


def test_sweep_single_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--gammas", "0", "--rhos", "0.5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    assert header[:5] == ["gamma", "rho", "beta", "mu", "kappa"]
    assert len(rows) == 2
    assert rows[1].split(",")[-1] == "ok"


def test_sweep_empty_rho_list(capsys):
    assert run(["sweep", "--gammas", "0", "--rhos", ""]) == 2


def test_sweep_boundary_row_marked_invalid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    # rho = gamma is outside the open interval; that row is recorded as
    # invalid while the valid row still completes
    assert run(["sweep", "--gammas", "0", "--rhos", "0,0.5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    statuses = {r.split(",")[1]: r.split(",")[-1] for r in rows}
    assert statuses["0"] == "invalid"
    assert statuses["0.5"] == "ok"


def _readme_commands() -> list[str]:
    """The ``diagcoag ...`` lines of the README's Command line block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [ln for ln in block.splitlines() if ln.startswith("diagcoag ")]


def test_sweep_readme_command_parses_as_written():
    line = next(ln for ln in _readme_commands() if ln.startswith("diagcoag sweep "))
    args = cli.parse_args(shlex.split(line)[1:])
    assert args.gammas == "-1,0,0.5"
    assert args.rhos == "0.3,0.5,0.7"
    assert args.jobs == 4
    assert args.out == "sweep.csv"


@pytest.mark.parametrize(
    "line", _readme_commands(), ids=lambda line: line.split()[1]
)
def test_readme_command_parses_as_written(line):
    argv = shlex.split(line)[1:]
    args = cli.parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{argv[0]}")


@pytest.mark.parametrize("gammas", ["-1", "-1e0", "-1,"])
def test_sweep_negative_first_gamma_runs(gammas, capsys):
    # the row's bound verdict may fail by design (exit 4); a parse error is 2
    assert run(["sweep", "--gammas", gammas, "--rhos", "0.5"]) in (0, 4)
