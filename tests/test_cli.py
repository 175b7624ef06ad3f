import concurrent.futures
import dataclasses
import json
import re
import shlex
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import diagcoag
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


def test_negative_value_in_exponent_form_reads_as_a_value(tmp_path, capsys):
    # argparse takes "-1e-1" after an option for a flag unless it is attached with "="
    assert run(["mu", "--gamma=-1e-1", "--rho", "0.5"]) == 0
    attached = capsys.readouterr().out
    assert run(["mu", "--gamma", "-1e-1", "--rho", "0.5"]) == 0
    assert capsys.readouterr().out == attached
    argv = ["simulate", "--gamma", "-1e-1", "--rho", "0.5", "--t-end", "2", "--snapshots", "1",
            "--out", str(tmp_path / "neg")]
    assert run(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["neg.t2.csv"]


def test_mu_invalid_gamma(capsys):
    assert run(["mu", "--gamma", "1.5", "--beta", "2"]) == 2
    assert "gamma must be < 1" in capsys.readouterr().err


def test_mu_needs_exactly_one_of_beta_rho(capsys):
    assert run(["mu", "--gamma", "0"]) == 2
    assert run(["mu", "--gamma", "0", "--beta", "2", "--rho", "0.5"]) == 2


def test_config_values_convert_as_their_flags(tmp_path, capsys):
    assert run(["mu", "--gamma", "0", "--rho", "0.5"]) == 0
    from_flags = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    # the second file also serves profile: mu ignores the keys only profile takes
    for config in (
        {"gamma": "0", "rho": 0.5, "beta": None},
        {"gamma": 0, "rho": 0.5, "m": 64, "c": 1, "z": 0.01, "xmax": 1e9},
    ):
        cfg.write_text(json.dumps(config))
        assert run(["mu", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == from_flags


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
    cfg.write_text(json.dumps({"gamma": 0.0, "rho": 0.5, "m": 32}))
    out = tmp_path / "from_config.csv"
    # the flag overrides the config's rho 0.5; gamma and m (not the default 64) come from it
    assert run(["profile", "--config", str(cfg), "--rho", "0.25", "--out", str(out)]) == 0
    meta = json.loads((tmp_path / "from_config.meta.json").read_text())
    assert (meta["gamma"], meta["beta"], meta["m"]) == (0.0, 4.0, 32)


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
    # 0.1% keeps h decreasing; 1% would make it increase, which reading refuses
    rows = saved_profile.read_text().splitlines()
    k = len(rows) // 2
    cols = rows[k].split(",")
    cols[1] = f"{float(cols[1]) * 1.001:.17g}"
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
    assert "octaves, more than the budget of 600 (gamma=0.9, beta=100.0)" in capsys.readouterr().err
    assert not out.exists()


def test_profile_diverging_amplitude_exits_3_without_a_warning(tmp_path, capsys):
    # c*c overflows in the first iterate; warnings are errors in this suite
    out = tmp_path / "huge_c.csv"
    argv = ["profile", "--gamma", "0", "--beta", "2", "--c", "1e200", "--z", "0.01",
            "--out", str(out)]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "fixed-point iteration diverged at z=0.01 (non-finite iterate)\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("c", ["1e-299", "1e-310"])
def test_profile_tiny_amplitude_marches_as_a_fat_tail(tmp_path, capsys, c):
    # every c > 0, a subnormal one too, is the fat-tail branch: its first step
    # past the seed cannot resolve the decrease that branch requires
    out = tmp_path / "tiny_c.csv"
    argv = ["profile", "--gamma", "0", "--beta", "2", "--c", c, "--z", "0.01", "--out", str(out)]
    assert run(argv) == 3
    assert capsys.readouterr().err == "h failed to decrease at x = 0.0101089\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("c", ["1e-14", "1e6"])
def test_profile_amplitude_without_z_writes_the_unit_amplitude_profile(tmp_path, capsys, c):
    # c fixes only the gauge, which normalize removes: every c > 0 writes c = 1's bytes
    files = {}
    for value in ("1", c):
        out = tmp_path / f"c{value}.csv"
        assert run(["profile", "--gamma", "0", "--beta", "2", "--c", value, "--out", str(out)]) == 0
        files[value] = (out.read_bytes(), out.with_name(f"c{value}.meta.json").read_bytes())
    assert files[c] == files["1"]


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


def test_verify_profile_missing_x_1_exits_2(saved_profile, tmp_path, capsys):
    # the gauge h(1) = 1/2 is read at x = 1, which a table cut above it no longer holds
    rows = saved_profile.read_text().splitlines(keepends=True)
    path = tmp_path / "above1.csv"
    path.write_text("".join([rows[0]] + [r for r in rows[1:] if float(r.split(",")[0]) > 1.0]))
    path.with_name("above1.meta.json").write_text(
        saved_profile.with_name(saved_profile.stem + ".meta.json").read_text()
    )
    assert run(["verify", str(path)]) == 2
    assert "precondition failed: x = 1 outside the stored domain" in capsys.readouterr().err


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


def test_simulate_single_snapshot_is_at_t_end(tmp_path, capsys):
    # one snapshot lands at --t-end, with the bytes of the last of two
    for n, prefix in (("1", "one"), ("2", "two")):
        assert run(["simulate", *_CANON, "--t-end", "4", "--snapshots", n,
                    "--octaves", "20", "--out", str(tmp_path / prefix)]) == 0
    assert sorted(p.name for p in tmp_path.glob("one.*")) == ["one.t4.csv"]
    assert (tmp_path / "one.t4.csv").read_bytes() == (tmp_path / "two.t4.csv").read_bytes()
    assert "wrote 1 snapshots" in capsys.readouterr().out


@pytest.mark.parametrize("init", ["pulse", "powerlaw"])
def test_simulate_snapshots_are_savetxt_bytes(init, tmp_path, capsys):
    # 40 octaves at md 16: 641 rows, one full chunk of the writer and a partial one
    gamma = make_params(0.0, 2.0).gamma
    code = run(["simulate", "--gamma", "0", "--beta", "2", "--init", init,
                "--t-end", "1.5", "--snapshots", "3", "--out", str(tmp_path / "s")])
    assert code == 0
    if init == "pulse":
        start = dynamics.pulse_field(gamma, 320, xi_min=2.0**-20)
    else:
        start = dynamics.power_law_field(gamma, 1.0, 1.5, xi_min=2.0**-20)
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


def _middle_h(value, col=1):
    """An edit that sets h (or column ``col``) in the middle row to ``value(rows)``."""

    def edit(text: str) -> str:
        rows = text.splitlines(keepends=True)
        cols = rows[len(rows) // 2].split(",")
        cols[col] = value(rows)
        rows[len(rows) // 2] = ",".join(cols)
        return "".join(rows)

    return edit


# Malformed copies of a saved profile: (file to edit, edit of its text).
_MALFORMED = {
    "non-numeric cell": ("csv", _non_numeric_cell),
    "h nan": ("csv", _middle_h(lambda rows: "nan")),
    "h inf": ("csv", _middle_h(lambda rows: "inf")),
    "h -inf": ("csv", _middle_h(lambda rows: "-inf")),
    "h negative": ("csv", _middle_h(lambda rows: "-0.1")),
    "h increasing": ("csv", _middle_h(lambda rows: rows[1].split(",")[1])),
    "x negative": ("csv", _middle_h(lambda rows: "-1", col=0)),
    "sidecar normalized a string": (
        "meta", lambda text: text.replace('"normalized": true', '"normalized": "false"')
    ),
    "sidecar m not an integer": ("meta", lambda text: text.replace('"m": 64', '"m": 64.9')),
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


# Sidecars that contradict a sound table: (edit of the sidecar text, message).
_CONTRADICTING_SIDECARS = {
    "m 32 over a 64-node table": (
        lambda text: text.replace('"m": 64', '"m": 32'),
        "profile CSV grid is not uniform in log x at spacing ln2/m",
    ),
    "c 0 over a fat tail": (
        lambda text: re.sub(r'"c": [^,]+,', '"c": 0.0,', text),
        "constant-branch profile drifted from 1/(1-theta)",
    ),
}


@pytest.mark.parametrize("case", _CONTRADICTING_SIDECARS)
def test_verify_sidecar_contradicting_its_table_exits_2(case, saved_profile, tmp_path, capsys):
    edit, named = _CONTRADICTING_SIDECARS[case]
    meta = saved_profile.with_name(saved_profile.stem + ".meta.json").read_text()
    assert edit(meta) != meta
    path = tmp_path / "bad.csv"
    path.write_text(saved_profile.read_text())
    (tmp_path / "bad.meta.json").write_text(edit(meta))
    assert run(["verify", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_simulate_profile_with_a_negative_h_exits_2(saved_profile, tmp_path, capsys):
    path = tmp_path / "neg.csv"
    path.write_text(_middle_h(lambda rows: "-0.1")(saved_profile.read_text()))
    path.with_name("neg.meta.json").write_text(
        saved_profile.with_name(saved_profile.stem + ".meta.json").read_text()
    )
    code = run(["simulate", "--gamma", "0", "--rho", "0.5", "--init", f"profile:{path}",
                "--t-end", "2", "--out", str(tmp_path / "sim")])
    assert code == 2
    assert "malformed profile" in capsys.readouterr().err
    assert not list(tmp_path.glob("sim*"))


def test_verify_profile_with_a_dhdx_column_exits_2(saved_profile, tmp_path, capsys):
    # a table whose fourth column is dh/dx, as written by earlier versions
    path = tmp_path / "old.csv"
    path.write_text(saved_profile.read_text().replace("x,h,g,dhdtau", "x,h,g,dhdx", 1))
    path.with_name("old.meta.json").write_text(
        saved_profile.with_name(saved_profile.stem + ".meta.json").read_text()
    )
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'x,h,g,dhdx'" in err and "expected 'x,h,g,dhdtau'" in err


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--init", "pulse", "--snapshots", "1"],
        ["--init", "profile:{canon}"],
        ["--snapshots", "3000000"],
    ],
    ids=["pulse", "profile", "3000000 snapshots"],
)
def test_simulate_t_end_whose_rescaling_overflows_exits_2(
    flags, saved_profile, tmp_path, capsys, monkeypatch
):
    # t_end**beta = 1e400 at beta = 2: the snapshots cannot be rescaled, so the
    # run is refused before it evolves, with a reference profile or without, and
    # before it builds the snapshot times and names (3,000,000 of them take 3 s)
    def no_evolve(*args, **kwargs):
        raise AssertionError("evolved before t_end was checked")

    def no_times(*args, **kwargs):
        raise AssertionError("built the snapshot times before t_end was checked")

    monkeypatch.setattr(dynamics, "evolve", no_evolve)
    monkeypatch.setattr(dynamics, "output_times", no_times)
    flags = [flag.format(canon=saved_profile) for flag in flags]
    code = run(["simulate", "--gamma", "0", "--rho", "0.5", *flags,
                "--t-end", "1e200", "--out", str(tmp_path / "far")])
    assert code == 2
    assert "at t = 1e+200 overflows" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize(
    "flags, named",
    [
        # gamma 0.5 against an initial field sampled from the gamma = 0 profile
        (["--gamma", "0.5", "--beta", "3", "--init", "profile:{canon}"], "kernel gamma = 0"),
        # beta 3 against the beta = 2 reference profile
        (["--gamma", "0", "--beta", "3", "--init", "pulse", "--profile", "{canon}"],
         "reference profile's gamma = 0, beta = 2"),
        (["--gamma", "0", "--beta", "3", "--init", "profile:{canon}"],
         "reference profile's gamma = 0, beta = 2"),
    ],
    ids=["init gamma", "reference beta", "init reference beta"],
)
def test_simulate_model_mismatch_exits_2(flags, named, saved_profile, tmp_path, capsys):
    argv = [f.format(canon=saved_profile) for f in flags]
    code = run(["simulate", *argv, "--t-end", "2", "--snapshots", "2",
                "--out", str(tmp_path / "sim")])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_simulate_measures_against_the_profile_flag(saved_profile, tmp_path, capsys):
    # initial data from the rho = 0.5 profile, measured against a rho = 0.7 one
    other = tmp_path / "other.csv"
    assert run(["profile", "--gamma", "0", "--rho", "0.7", "--out", str(other)]) == 0
    code = run(["simulate", "--gamma", "0", "--rho", "0.7",
                "--init", f"profile:{saved_profile}", "--profile", str(other),
                "--t-end", "2", "--snapshots", "2", "--octaves", "30",
                "--out", str(tmp_path / "sim")])
    assert code == 0
    reference = read_profile_csv(other)
    field = dynamics.field_from_profile(read_profile_csv(saved_profile), octaves=30)
    report, _ = dynamics.simulate_collapse(field, reference, reference.params.beta, 2.0, 2)
    written = json.loads((tmp_path / "sim.collapse.json").read_text())
    assert written == json.loads(json.dumps(dataclasses.asdict(report)))


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
    "mu without gamma": (["mu", "--beta", "2"], "gamma is required"),
    "simulate --init profile": (
        ["simulate", *_CANON, "--init", "profile"], "initial data 'profile' needs a profile CSV path"
    ),
    "simulate --init foo": (
        ["simulate", *_CANON, "--init", "foo:1"], "unknown initial data spec: 'foo:1'"
    ),
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
    # 1 + (1 + gamma) beta = -0.6 < 0: 0.0**-0.6 is never formed for the rescaling check
    "simulate --t-end 0 at gamma -5": (
        ["simulate", "--gamma", "-5", "--beta", "0.4", "--t-end", "0"], "got 0 and 5"
    ),
    # refused by the rescaling, which simulate checks at t_end before the snapshot times
    "simulate --t-end inf": (
        ["simulate", *_CANON, "--t-end", "inf", "--snapshots", "2"], "finite t > 0; got t = inf"
    ),
    "simulate --octaves 2000": (["simulate", *_CANON, "--octaves", "2000"], "xi_min * 2**2000"),
    "simulate --octaves 1e15": (
        ["simulate", *_CANON, "--octaves", str(10**15)], "size grid overflows: xi_min * 2**1e+15"
    ),
    "simulate --xi-min 1e-320": (
        ["simulate", *_CANON, "--xi-min", "1e-320"], "xi_min must be positive and normal"
    ),
    "simulate pulse --xi-min 1e-320": (
        ["simulate", *_CANON, "--init", "pulse", "--xi-min", "1e-320", "--t-end", "2",
         "--snapshots", "2"],
        "xi_min must be positive and normal; got 9.99989e-321",
    ),
    "profile --z 1e-320": (
        ["profile", *_CANON, "--z", "1e-320"], "lowest node z * 2**-20 is subnormal"
    ),
    "profile --c inf": (["profile", *_CANON, "--c", "inf"], "c must be finite; got inf"),
    "profile --c nan": (["profile", *_CANON, "--c", "nan"], "c must be finite; got nan"),
    "profile --xmax inf": (["profile", *_CANON, "--xmax", "inf"], "x_max must be finite"),
    "profile --c 1e300 --xmax 1e10": (
        ["profile", "--gamma", "0.5", "--beta", "4", "--c", "1e300", "--xmax", "1e10"],
        "x_max = 1e+10 at c = 1e+300 overflows in the gauge c = 1",
    ),
    "profile --z inf": (["profile", *_CANON, "--z", "inf"], "z must be finite; got inf"),
    "profile --beta inf": (["profile", "--gamma", "0", "--beta", "inf"], "beta = inf"),
    "mu --beta nan": (["mu", "--gamma", "0", "--beta", "nan"], "beta = nan"),
    "simulate --t-end 0.5": (
        ["simulate", *_CANON, "--t-end", "0.5", "--snapshots", "2"],
        "t_end = 0.5 is before the field's time t = 1",
    ),
    # refused before the first step, whose flux (1e147) or square of t xi f (1e150) would overflow
    "simulate powerlaw:1e147,0": (
        ["simulate", *_CANON, "--init", "powerlaw:1e147,0", "--t-end", "2"],
        "number density too large: its boundary flux overflows",
    ),
    "simulate powerlaw:1e150,0": (
        ["simulate", *_CANON, "--init", "powerlaw:1e150,0", "--t-end", "2"],
        "number density too large: its loss (t xi**(1+gamma) f)**2 overflows",
    ),
    "config gamma abc": (["mu", "--config", "gamma_abc.json"], "gamma = 'abc'"),
    "config rho text": (["profile", "--config", "rho_text.json"], "rho = 'half'"),
    "config c text": (["profile", *_CANON, "--config", "c_text.json"], "c = 'one'"),
    "config m float": (["profile", *_CANON, "--config", "m_float.json"], "m = 64.5"),
    "config z text": (["profile", *_CANON, "--config", "z_text.json"], "z = 'small'"),
    "config xmax list": (["profile", *_CANON, "--config", "xmax_list.json"], "xmax = [1]"),
    # a key no command takes is refused before computing, naming the keys a config may set
    "config typo key": (
        ["mu", "--config", "typo.json"],
        "sets unknown key 'gama'; a config may set gamma, beta, rho, c, z, m, xmax, out",
    ),
    "config t_end": (["simulate", "--config", "t_end.json"], "sets unknown key 't_end'"),
    # an --out that cannot be written names the path, and no command writes a file
    "profile --out missing dir": (["profile", *_CANON, "--out", "no/p.csv"], "'no/p.csv'"),
    "mu --out missing dir": (["mu", *_CANON, "--out", "no/mu.json"], "'no/mu.json'"),
    "sweep --out missing dir": (
        ["sweep", "--gammas", "0", "--rhos", "0.5", "--out", "no/s.csv"], "'no/s.csv'"
    ),
    "simulate --out missing dir": (
        ["simulate", *_CANON, "--t-end", "2", "--snapshots", "2", "--out", "no/s"],
        "'no/s.t1.csv'",
    ),
    # snapshot names agree where output times agree to 6 digits; refused before evolving
    "simulate --t-end 1 --snapshots 2": (
        ["simulate", *_CANON, "--t-end", "1", "--snapshots", "2"], "written to sim.t1.csv"
    ),
    "simulate --t-end 1.000001 --snapshots 3": (
        ["simulate", *_CANON, "--t-end", "1.000001", "--snapshots", "3", "--out", "near"],
        "written to near.t1.csv",
    ),
    # a count whose first two times both read t1 is refused before the times are allocated
    "simulate --snapshots 1e15": (
        ["simulate", *_CANON, "--snapshots", str(10**15)], "written to sim.t1.csv"
    ),
    # a kernel weight xi**(1+gamma) that underflows to 0 or overflows, refused before a step
    "simulate weight 0": (
        ["simulate", "--gamma", "0.9", "--rho", "0.95", "--init", "pulse:0",
         "--xi-min", "2.2250738585072014e-308", "--md", "1", "--octaves", "3",
         "--t-end", "10", "--snapshots", "1"],
        "weight xi**(1+gamma) is 0 or inf on the grid [2.22507e-308, 1.78006e-307]",
    ),
    "simulate weight inf": (
        ["simulate", "--gamma=-5", "--beta", "0.4", "--init", "pulse:0", "--xi-min", "1e-300",
         "--md", "1", "--octaves", "3", "--t-end", "10", "--snapshots", "1"],
        "weight xi**(1+gamma) is 0 or inf on the grid [1e-300, 8e-300]",
    ),
}
# The config files the cases above read.
_CONFIG_FILES = {
    "text.json": "not json\n",
    "array.json": "[1, 2]\n",
    "gamma_abc.json": '{"gamma": "abc", "beta": 2}',
    "rho_text.json": '{"gamma": 0, "rho": "half"}',
    "c_text.json": '{"c": "one"}',
    "m_float.json": '{"m": 64.5}',
    "z_text.json": '{"z": "small"}',
    "xmax_list.json": '{"xmax": [1]}',
    "typo.json": '{"gama": 0, "beta": 2}',
    "t_end.json": '{"gamma": 0, "rho": 0.5, "t_end": 100, "snapshots": 2}',
}


@pytest.mark.parametrize("case", _INVALID_INPUTS)
def test_invalid_input_exits_2_naming_it(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in _CONFIG_FILES.items():
        (tmp_path / name).write_text(text)
    argv, named = _INVALID_INPUTS[case]
    assert run(argv) == 2
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_CONFIG_FILES)


# Solver failures (exit 3), each with the text by which its message names it.
_SOLVER_FAILURES = {
    "profile --beta 1000 --xmax 1e10": (
        ["profile", "--gamma", "0", "--beta", "1000", "--xmax", "1e10"],
        "no admissible hand-off point z found",
    ),
    "mu --gamma -1e30 --beta 1e-29": (
        ["mu", "--gamma=-1e30", "--beta", "1e-29"], "failed to bracket mu"
    ),
}


@pytest.mark.parametrize("case", _SOLVER_FAILURES)
def test_solver_failure_exits_3_naming_it(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, named = _SOLVER_FAILURES[case]
    assert run(argv) == 3
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_profile_explicit_xmax_is_used_as_given(tmp_path, capsys):
    # the march ends at the first node past x = 10, where h has not crossed 1/2
    out = tmp_path / "short.csv"
    assert run(["profile", *_CANON, "--xmax", "10", "--out", str(out)]) == 3
    assert "does not straddle 1/2" in capsys.readouterr().err
    assert not out.exists() and not out.with_name("short.meta.json").exists()


def test_profile_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--gamma", "0", "--beta", "2", "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# Every package error and the exit code the cli docstring documents for it.
_ERROR_CODES = [
    (errors.DomainError, 2),
    (errors.ConvergenceError, 3),
    (errors.MonotonicityError, 3),
    (errors.PositivityError, 3),
    (errors.RangeError, 3),
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


def _package_errors(base=errors.DiagcoagError):
    for error in base.__subclasses__():
        yield error
        yield from _package_errors(error)


def test_every_package_error_carries_an_optional_x():
    assert errors.DomainError("outside", x=1.0).x == 1.0
    for error in (errors.DiagcoagError, *_package_errors()):
        assert error("boom").x is None


def test_verify_unwritable_out_exits_2_writing_nothing(saved_profile, tmp_path, capsys):
    out = tmp_path / "missing" / "v.json"
    assert run(["verify", str(saved_profile), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(out) in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.parent.exists()


# Each writing command with an --out in a missing directory: its --out, the file
# it would write first, and the computations it must not reach.
_SIMULATE = ["simulate", *_CANON, "--t-end", "2", "--snapshots", "2"]
_EVOLVING = [(dynamics, "evolve"), (dynamics, "simulate_collapse")]
_OUT_IN_MISSING_DIR = {
    "mu": (["mu", *_CANON], "mu.json", "mu.json", [(cli, "solve_mu")]),
    "profile": (["profile", *_CANON], "p.csv", "p.csv", [(pipeline, "build_profile")]),
    "verify": (["verify", "{profile}"], "v.json", "v.json", [(tail, "build_tail_report")]),
    "sweep": (
        ["sweep", "--gammas", "0", "--rhos", "0.5"], "s.csv", "s.csv", [(pipeline, "sweep_row")]
    ),
    "simulate": (_SIMULATE, "s", "s.t1.csv", _EVOLVING),
    "simulate --profile": (
        [*_SIMULATE, "--profile", "{profile}"], "s", "s.collapse.json", _EVOLVING
    ),
}


@pytest.mark.parametrize("case", _OUT_IN_MISSING_DIR)
def test_out_in_missing_dir_exits_2_before_computing(
    case, saved_profile, tmp_path, capsys, monkeypatch
):
    argv, out, first_file, computations = _OUT_IN_MISSING_DIR[case]
    for module, name in computations:
        def computed(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran before the --out directory was checked")

        monkeypatch.setattr(module, name, computed)
    missing = tmp_path / "missing"
    argv = [a.format(profile=saved_profile) for a in argv] + ["--out", str(missing / out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "cannot write or read a file: [Errno 2] No such file or directory: "
        f"{str(missing / first_file)!r}\n"
    )
    assert captured.out == "" and not missing.exists()


def test_out_under_a_file_exits_2_before_computing(tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("sweep_row ran before the --out directory was checked")

    monkeypatch.setattr(pipeline, "sweep_row", computed)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "s.csv"
    assert run(["sweep", "--gammas", "0", "--rhos", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"cannot write or read a file: [Errno 20] Not a directory: {str(out)!r}\n"
    )


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


def _readme_python() -> str:
    """The ``python`` block of the README's Library use section."""
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_sweep_readme_command_parses_as_written():
    line = next(ln for ln in _readme_commands() if ln.startswith("diagcoag sweep "))
    args = cli.parse_args(shlex.split(line)[1:])
    assert args.gammas == "-1,0,0.5"
    assert args.rhos == "0.3,0.5,0.7"
    assert args.out == "sweep.csv"


@pytest.mark.parametrize(
    "line", _readme_commands(), ids=lambda line: line.split()[1]
)
def test_readme_command_parses_as_written(line):
    argv = shlex.split(line)[1:]
    args = cli.parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{argv[0]}")


def test_readme_flags_are_registered():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices.values()
    registered = {flag for p in subparsers for flag in p._option_string_actions}
    assert named, "no flag found in the Command line section"
    assert named <= registered, sorted(named - registered)


def test_sweep_pool_size_keeps_the_table(tmp_path, monkeypatch, capsys):
    # the README sweep (9 cells) serially and in a pool of two workers
    line = next(ln for ln in _readme_commands() if ln.startswith("diagcoag sweep "))
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        (tmp_path / str(cpus)).mkdir()
        monkeypatch.chdir(tmp_path / str(cpus))
        assert run(shlex.split(line)[1:]) == 4
        outputs[cpus] = (Path("sweep.csv").read_bytes(), capsys.readouterr().out)
        assert pools == ([] if cpus == 1 else [2])
    assert outputs[1] == outputs[2]


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    # Each line runs in order in one directory, so verify and simulate read the
    # profile written before them.  The sweep exits 4: its rows (-1, 0.3/0.5/0.7)
    # and (0, 0.7) fail the stated c0/beta lower bound by design (beta < 2
    # beta_star) and the gamma = -1 rows fail Cauchy pairs whose bound lies
    # below the march's discretization error.
    monkeypatch.chdir(tmp_path)
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for line in _readme_commands():
            argv = shlex.split(line)[1:]
            codes.append((argv[0], run(argv)))
    assert codes == [("mu", 0), ("profile", 0), ("verify", 0), ("simulate", 0), ("sweep", 4)]
    # the snapshots stop at the first node at or above x_hi t_end**beta: 498 of
    # the 641 nodes of 40 octaves at md 16
    x_hi = json.loads((tmp_path / "sim.collapse.json").read_text())["window"][1]
    top = x_hi * 4.0**2.0
    for snap in sorted(tmp_path.glob("sim.t*.csv")):
        xi = np.loadtxt(snap, delimiter=",", skiprows=1, usecols=0)
        assert len(xi) == 498
        assert xi[-2] < top <= xi[-1] == 2.0**-20 * 2.0 ** (497 / 16)


def test_package_root_exports_the_readme_library_api():
    imported = re.search(r"^from diagcoag import (.+)$", _readme_python(), re.M).group(1)
    assert diagcoag.__all__ == [name.strip() for name in imported.split(",")]
    assert all(hasattr(diagcoag, name) for name in diagcoag.__all__)


def test_readme_library_example_runs_as_written(canonical_profile, capsys):
    exec(compile(_readme_python(), "README.md", "exec"), {})
    d_estimate, d_error_bound, lower_margin_chain = map(float, capsys.readouterr().out.split())
    # the example builds the canonical profile, and print keeps every digit of d
    assert (d_estimate, d_error_bound) == tail.estimate_d(canonical_profile)
    assert 0.0 < d_error_bound < d_estimate < 1.0
    assert lower_margin_chain >= 0.0


@pytest.mark.parametrize("gammas", ["-1", "-1e0", "-1,"])
def test_sweep_negative_first_gamma_runs(gammas, capsys):
    # the row's bound verdict may fail by design (exit 4); a parse error is 2
    assert run(["sweep", "--gammas", gammas, "--rhos", "0.5"]) in (0, 4)
