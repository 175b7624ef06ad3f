"""Command-line front end.

Subcommands: ``mu`` (bifurcation exponent), ``profile`` (full pipeline),
``verify`` (tail bound suite on saved profiles), ``simulate`` (direct
time-dependent runs), ``sweep`` (family coverage table).

Exit codes, mapped by ``main``: 0 success; 2 invalid input (``DomainError``
or ``WindowError``: a parameter out of range at any stage, an unreadable
``--config`` or sweep list, a missing or malformed profile CSV or sidecar, a
malformed or out-of-range ``--init`` or simulation grid, a collapse window off
the grid or narrower than one octave); 3 solver failure (every other package
error); 4 failed verification bounds (``tail.bounds_hold``); 5 time-step
collapse (``StepCollapseError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import dynamics, expansion, pipeline, tail
from .errors import (
    DiagcoagError,
    DomainError,
    RangeError,
    StepCollapseError,
    WindowError,
)
from .mu import solve_mu
from .params import beta_from_rho, make_params
from .profile import (
    profile_metadata,
    read_profile_csv,
    write_profile_csv,
    write_table,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_BOUNDS = 4
EXIT_STEP = 5


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """Start from config-file values, let explicit flags win."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(config, dict):
            raise DomainError(f"config file {args.config!r} does not hold a JSON object")
        merged.update(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _resolve_beta(cfg: dict) -> tuple[float, float]:
    gamma = cfg.get("gamma")
    if gamma is None:
        raise DomainError("gamma is required")
    beta = cfg.get("beta")
    rho = cfg.get("rho")
    if (beta is None) == (rho is None):
        raise DomainError("exactly one of --beta/--rho must be supplied")
    if beta is None:
        beta = beta_from_rho(gamma, rho)
    return float(gamma), float(beta)


def _print_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def cmd_mu(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ["gamma", "beta", "rho", "out"])
    gamma, beta = _resolve_beta(cfg)
    report = solve_mu(gamma, beta)
    _print_json(dataclasses.asdict(report), cfg.get("out"))
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    cfg = _merge_config(
        args, ["gamma", "beta", "rho", "c", "z", "m", "xmax", "out", "format"]
    )
    gamma, beta = _resolve_beta(cfg)
    params = make_params(gamma, beta)
    c = float(cfg.get("c", 1.0))
    if params.degenerate and c > 0.0 and not args.allow_degenerate:
        raise DomainError(
            "beta equals beta_star (degenerate, mass-conserving case); "
            "pass --allow-degenerate to proceed"
        )
    profile = pipeline.build_profile(
        params,
        c=c,
        z=cfg.get("z"),
        m=int(cfg.get("m", expansion.DEFAULT_NODES_PER_OCTAVE)),
        x_max=cfg.get("xmax"),
    )
    out = cfg.get("out", "profile.csv")
    if cfg.get("format", "csv") == "json":
        payload = {
            "meta": {**params.to_dict(), **profile_metadata(profile)},
            "x": profile.x_values.tolist(),
            "h": profile.h_values.tolist(),
            "g": profile.g_values.tolist(),
            "dhdx": profile.dh_values.tolist(),
        }
        Path(out).write_text(json.dumps(payload) + "\n")
    else:
        write_profile_csv(profile, out)
    print(f"wrote {out} ({len(profile.h_values)} nodes, "
          f"x in [{profile.x_min:.3g}, {profile.x_max:.3g}])")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    failures = []
    reports = {}
    for path in args.profiles:
        profile = read_profile_csv(path)
        try:
            report, details = tail.build_tail_report(profile)
        except (DomainError, RangeError) as exc:
            print(f"{path}: precondition failed: {exc}", file=sys.stderr)
            return EXIT_INVALID
        entry = dataclasses.asdict(report)
        entry["details"] = {
            k: v for k, v in details.items() if isinstance(v, (bool, int, float, str))
        }
        reports[str(path)] = entry
        if not tail.bounds_hold(report, details):
            failures.append(str(path))
    _print_json(reports, args.out)
    if failures:
        print(f"verification failed for: {', '.join(failures)}", file=sys.stderr)
        return EXIT_BOUNDS
    return EXIT_OK


def _spec_number(kind, text: str, spec: str):
    """``kind(text)``, or ``DomainError`` naming the ``--init`` spec."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"malformed initial data spec: {spec!r}") from None


def _parse_init(spec: str, params, field_kwargs: dict):
    kind, _, rest = spec.partition(":")
    if kind == "profile":
        if not rest:
            raise DomainError("initial data 'profile' needs a profile CSV path")
        prof = read_profile_csv(rest)
        return dynamics.field_from_profile(prof, **field_kwargs), prof
    if kind == "powerlaw":
        if rest:
            amp_s, _, exp_s = rest.partition(",")
            amp, exp = _spec_number(float, amp_s, spec), _spec_number(float, exp_s, spec)
        else:
            amp, exp = 1.0, (3.0 + params.gamma) / 2.0
        return dynamics.power_law_field(params.kernel, amp, exp, **field_kwargs), None
    if kind == "pulse":
        node = _spec_number(int, rest, spec) if rest else 320
        return dynamics.pulse_field(params.kernel, node, **field_kwargs), None
    raise DomainError(f"unknown initial data spec: {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, ["gamma", "beta", "rho", "out"])
    gamma, beta = _resolve_beta(cfg)
    params = make_params(gamma, beta)
    field_kwargs = dict(
        xi_min=args.xi_min,
        octaves=args.octaves,
        nodes_per_octave=args.md,
    )
    field, profile = _parse_init(args.init, params, field_kwargs)
    if profile is None and args.profile:
        profile = read_profile_csv(args.profile)

    out_prefix = cfg.get("out", "sim")
    if profile is not None:
        report, fields = dynamics.simulate_collapse(
            field, profile, params.beta, args.t_end,
            n_outputs=args.snapshots, collect_fields=True,
        )
        _print_json(dataclasses.asdict(report), f"{out_prefix}.collapse.json")
    else:
        fields = dynamics.evolve(field, args.t_end, args.snapshots)

    for fld in fields:
        xi = fld.xi_grid
        scale = fld.t**params.beta
        resc = fld.t ** (1.0 + (1.0 + gamma) * params.beta) * fld.f_values
        write_table(
            f"{out_prefix}.t{fld.t:.6g}.csv",
            "xi,f,x_rescaled,density_rescaled",
            np.column_stack([xi, fld.f_values, xi / scale, resc]),
        )
    print(f"wrote {len(fields)} snapshots with prefix {out_prefix}")
    return EXIT_OK


_SWEEP_COLUMNS = ["gamma", "rho", "beta", "mu", "kappa", *pipeline.TAIL_COLUMNS, "status"]


def _sweep_cell(row: dict, key: str) -> str:
    val = row.get(key, "")
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        gammas = [float(v) for v in args.gammas.split(",") if v.strip() != ""]
        rhos = [float(v) for v in args.rhos.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"sweep lists must hold numbers: {exc}") from None
    if not gammas or not rhos:
        raise DomainError("sweep needs nonempty gamma and rho lists")
    cell_gammas, cell_rhos = zip(*[(g, r) for g in gammas for r in rhos])
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(pipeline.sweep_row, cell_gammas, cell_rhos))
    else:
        rows = list(map(pipeline.sweep_row, cell_gammas, cell_rhos))
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_sweep_cell(row, k) for k in _SWEEP_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    bad = [r for r in rows if r["status"] not in ("ok", "invalid")]
    return EXIT_BOUNDS if bad else EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--config", type=str, help="JSON config merged under explicit flags")
    p.add_argument("--out", type=str)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagcoag",
        description="Self-similar profiles of the diagonal-kernel coagulation equation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="solve the bifurcation exponent")
    _add_common(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("profile", help="construct a profile (CSV + metadata)")
    _add_common(p)
    p.add_argument("--c", type=float)
    p.add_argument("--z", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--xmax", type=float)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--allow-degenerate", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the tail bound suite on saved profiles")
    p.add_argument("profiles", nargs="+")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="direct simulation of the coagulation equation")
    _add_common(p)
    p.add_argument("--init", type=str, default="powerlaw",
                   help="profile[:path] | powerlaw[:B,a] | pulse[:k0]")
    p.add_argument("--profile", type=str, help="reference profile CSV for the collapse metric")
    p.add_argument("--t-end", type=float, default=4.0)
    p.add_argument("--snapshots", type=int, default=5)
    p.add_argument("--xi-min", type=float, default=2.0**-20)
    p.add_argument("--octaves", type=int, default=dynamics.DEFAULT_OCTAVES)
    p.add_argument("--md", type=int, default=dynamics.DEFAULT_NODES_PER_OCTAVE)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="profile family coverage table")
    p.add_argument("--gammas", type=str, required=True)
    p.add_argument("--rhos", type=str, required=True)
    p.add_argument("--out", type=str)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return ap


# Options taking a comma-separated list of numbers, whose first entry may be
# negative ("--gammas -1,0,0.5"); argparse would take such a value for a flag.
_LIST_OPTIONS = ("--gammas", "--rhos")


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--gammas -1,0`` as ``--gammas=-1,0`` so argparse keeps the value."""
    out: list[str] = []
    for arg in argv:
        if (
            out
            and out[-1] in _LIST_OPTIONS
            and arg[:1] == "-"
            and (arg[1:2].isdigit() or arg[1:2] == ".")
        ):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line (``sys.argv[1:]`` when ``argv`` is None)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return build_parser().parse_args(_attach_negative_lists(argv))


def _exit_code(exc: DiagcoagError) -> int:
    """The documented exit code of a package error (module docstring)."""
    if isinstance(exc, (DomainError, WindowError)):
        return EXIT_INVALID
    if isinstance(exc, StepCollapseError):
        return EXIT_STEP
    return EXIT_SOLVER


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except DiagcoagError as exc:
        print(str(exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
