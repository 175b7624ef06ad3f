"""Command-line front end.

Subcommands: ``mu`` (bifurcation exponent), ``profile`` (full pipeline),
``verify`` (tail bound suite on saved profiles), ``simulate`` (direct
time-dependent runs), ``sweep`` (family coverage table).

Exit codes, mapped by ``main``: 0 success; 2 ``DomainError`` or ``OSError``;
3 any other package error; 4 a failed ``tail.bounds_hold``.  The README's
exit-code list names the inputs each command refuses with exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import dynamics, expansion, pipeline, tail
from .errors import DiagcoagError, DomainError, RangeError
from .mu import solve_mu
from .params import beta_from_rho, make_params, same_value
from .profile import read_profile_csv, write_profile_csv, write_table

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_BOUNDS = 4


# The options a --config file may set, each with the conversion of its flag.
_OPTION_TYPES = {
    "gamma": float, "beta": float, "rho": float, "c": float, "z": float,
    "m": int, "xmax": float, "out": str,
}


def _merge_config(args: argparse.Namespace) -> dict:
    """The options the command registers: explicit flags, else config-file values.

    A config value is converted as its flag converts the value's text; one
    that its flag would refuse raises ``DomainError``, as does a key no command
    takes.  A key only another command takes is ignored.  JSON null is unset.
    """
    config: dict = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read config file {args.config!r}: {exc}") from None
        if not isinstance(config, dict):
            raise DomainError(f"config file {args.config!r} does not hold a JSON object")
        for key in config:
            if key not in _OPTION_TYPES:
                raise DomainError(f"config file {args.config!r} sets unknown key {key!r}; "
                                  f"a config may set {', '.join(_OPTION_TYPES)}")
    merged: dict = {}
    for key in (k for k in _OPTION_TYPES if hasattr(args, k)):
        val = getattr(args, key)
        if val is None and config.get(key) is not None:
            try:
                val = _OPTION_TYPES[key](str(config[key]))
            except ValueError:
                raise DomainError(
                    f"config value {key} = {config[key]!r} is not valid for --{key}"
                ) from None
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
    return gamma, beta


def _check_out_dir(path: str | None) -> None:
    """Refuse, before any computing, a file to write whose directory is missing or
    not a directory: raise the ``OSError`` that writing it would raise (for a
    missing one, ``FileNotFoundError``).  None writes nothing."""
    if path is None:
        return
    try:
        is_dir = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if not is_dir:
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _print_json(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def cmd_mu(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    gamma, beta = _resolve_beta(cfg)
    _check_out_dir(cfg.get("out"))
    report = solve_mu(gamma, beta)
    _print_json(dataclasses.asdict(report), cfg.get("out"))
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    gamma, beta = _resolve_beta(cfg)
    params = make_params(gamma, beta)
    c = cfg.get("c", 1.0)
    if params.degenerate and c > 0.0 and not args.allow_degenerate:
        raise DomainError(
            "beta equals beta_star (degenerate, mass-conserving case); "
            "pass --allow-degenerate to proceed"
        )
    out = cfg.get("out", "profile.csv")
    _check_out_dir(out)
    profile = pipeline.build_profile(
        params,
        c=c,
        z=cfg.get("z"),
        m=cfg.get("m", expansion.DEFAULT_NODES_PER_OCTAVE),
        x_max=cfg.get("xmax"),
    )
    write_profile_csv(profile, out)
    print(f"wrote {out} ({len(profile.h_values)} nodes, "
          f"x in [{profile.x_min:.3g}, {profile.x_max:.3g}])")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    profiles = [read_profile_csv(path) for path in args.profiles]
    _check_out_dir(args.out)
    failures = []
    reports = {}
    for path, profile in zip(args.profiles, profiles):
        try:
            report, details = tail.build_tail_report(profile)
        except (DomainError, RangeError) as exc:
            raise DomainError(f"{path}: precondition failed: {exc}") from None
        reports[str(path)] = {**dataclasses.asdict(report), "details": details}
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
        return dynamics.power_law_field(params.gamma, amp, exp, **field_kwargs), None
    if kind == "pulse":
        node = _spec_number(int, rest, spec) if rest else 320
        return dynamics.pulse_field(params.gamma, node, **field_kwargs), None
    raise DomainError(f"unknown initial data spec: {spec!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    gamma, beta = _resolve_beta(cfg)
    params = make_params(gamma, beta)
    field_kwargs = dict(
        xi_min=args.xi_min,
        octaves=args.octaves,
        nodes_per_octave=args.md,
    )
    field, profile = _parse_init(args.init, params, field_kwargs)
    if not same_value(field.gamma, params.gamma):
        raise DomainError(
            f"gamma = {params.gamma:g} differs from the initial data's kernel "
            f"gamma = {field.gamma:g}"
        )
    if args.profile:
        profile = read_profile_csv(args.profile)

    out_prefix = cfg.get("out", "sim")
    # refuse a rescaling overflow before building times and names; output_times names t_end < t
    if args.snapshots > 0 and field.t <= args.t_end:
        dynamics.similarity_factors(args.t_end, params.gamma, params.beta)
    # The times rise geometrically from field.t = 1; when the second, ~t_end**(1/(n-1)),
    # is below 1.0000049 it is named t1 too, so two t1 stand in before any is allocated.
    crowded = 1.0 <= args.t_end and math.log(args.t_end) / math.log(1.0000049) < args.snapshots - 1
    times = [field.t] * 2 if crowded else dynamics.output_times(field, args.t_end, args.snapshots)
    names = [f"{out_prefix}.t{t:.6g}.csv" for t in times]
    for name, later in zip(names, names[1:]):
        if name == later:  # the times increase, so equal names are neighbours
            raise DomainError(f"two snapshot times would both be written to {name}; "
                              "change --t-end or --snapshots")
    collapse_name = f"{out_prefix}.collapse.json"
    first_file = collapse_name if profile is not None else (names[0] if names else None)
    _check_out_dir(first_file)
    if profile is not None:
        report, fields = dynamics.simulate_collapse(
            field, profile, params.beta, args.t_end,
            n_outputs=args.snapshots, collect_fields=True,
        )
        _print_json(dataclasses.asdict(report), collapse_name)
    else:
        fields = dynamics.evolve(field, args.t_end, args.snapshots)

    for name, fld in zip(names, fields):
        xi = fld.xi_grid
        scale, density_scale = dynamics.similarity_factors(fld.t, params.gamma, params.beta)
        resc = density_scale * fld.f_values
        write_table(
            name,
            "xi,f,x_rescaled,density_rescaled",
            np.column_stack([xi, fld.f_values, xi / scale, resc]),
        )
    print(f"wrote {len(fields)} snapshots with prefix {out_prefix}")
    return EXIT_OK


def _sweep_cell(row: dict, key: str) -> str:
    val = row.get(key, "")
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        gammas = [float(v) for v in args.gammas.split(",") if v.strip() != ""]
        rhos = [float(v) for v in args.rhos.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"sweep lists must hold numbers: {exc}") from None
    if not gammas or not rhos:
        raise DomainError("sweep needs nonempty gamma and rho lists")
    _check_out_dir(args.out)
    cell_gammas, cell_rhos = zip(*[(g, r) for g in gammas for r in rhos])
    workers = min(_usable_cpus(), len(cell_gammas))
    if workers > 1:
        # imported here: concurrent.futures.process loads multiprocessing, which
        # every other command would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(pipeline.sweep_row, cell_gammas, cell_rhos))
    else:
        rows = list(map(pipeline.sweep_row, cell_gammas, cell_rhos))
    lines = [",".join(pipeline.SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_sweep_cell(row, k) for k in pipeline.SWEEP_COLUMNS))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    bad = [r for r in rows if r["status"] not in ("ok", "invalid")]
    return EXIT_BOUNDS if bad else EXIT_OK


def _add_options(p: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        p.add_argument(f"--{key}", type=_OPTION_TYPES[key])


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_options(p, "gamma", "beta", "rho")
    p.add_argument("--config", type=str, help="JSON config merged under explicit flags")
    _add_options(p, "out")


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
    _add_options(p, "c", "z", "m", "xmax")
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
    p.add_argument("--xi-min", type=float, default=dynamics.DEFAULT_XI_MIN)
    p.add_argument("--octaves", type=int, default=dynamics.DEFAULT_OCTAVES)
    p.add_argument("--md", type=int, default=dynamics.DEFAULT_NODES_PER_OCTAVE)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="profile family coverage table")
    p.add_argument("--gammas", type=str, required=True)
    p.add_argument("--rhos", type=str, required=True)
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_sweep)
    return ap


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--gamma -1e-1`` as ``--gamma=-1e-1`` and ``--gammas -1,0`` as
    ``--gammas=-1,0``: argparse takes such a value after an option for a flag."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[a-z-]+", out[-1]) and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line (``sys.argv[1:]`` when ``argv`` is None)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return build_parser().parse_args(_attach_negative_values(argv))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except DiagcoagError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, DomainError) else EXIT_SOLVER
    except OSError as exc:  # a file the command cannot write (or read); str names it
        print(f"cannot write or read a file: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
