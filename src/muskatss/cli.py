"""Command-line front end.

Four subcommands: ``solve`` (one slope value), ``continue`` (march the
branch), ``validate`` (order-of-accuracy report for a stored branch) and
``export`` (CSV data behind the standard figures).  All numerical
defaults equal the reference settings (N = 129, ds = 0.1, outer nodes
10*N); a flat key=value config file can override them, and command-line
flags override the file.

Exit codes: 0 success, 1 soft validation failure, 2 solver failure,
3 truncated branch, 64 usage error, 65 bad data file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .continuation import (
    Branch,
    continue_branch,
    load_branch,
    save_branch,
    solve_profile,
)
from .diagnostics import ds_derivative_check, figure_data, fit_loglog_slope, h1_distance
from .lm import LMConfig
from .quadrature import QuadConfig
from .residual import ResidualConfig, residual_vector

EX_OK = 0
EX_SOFT = 1
EX_SOLVER = 2
EX_TRUNCATED = 3
EX_USAGE = 64
EX_DATA = 65

# figure -> slope values shown in the corresponding reference plot
FIGURE_S_DEFAULTS = {
    "discrepancy": (1.0, 2.0, 4.0, 7.0),
    "normalized": (0.1, 0.2, 0.4, 1.0, 2.0, 4.0, 7.0),
    "integrated": (0.1, 0.2, 0.4, 1.0, 2.0, 4.0, 7.0),
}

_CONFIG_KEYS = {
    "n": int, "ds": float, "s": float, "s_max": float,
    "outer_nodes": int, "inner_abs_tol": float, "inner_rel_tol": float,
    "split_halfwidth_z": float, "split_halfwidth_end": float,
    "series_order": int, "include_endpoint": lambda v: v.lower() in ("1", "true", "yes"),
    "lambda0": float, "lambda_up": float, "lambda_down": float,
    "fd_step": float, "tol_residual": float, "tol_step": float,
    "max_iters": int, "threads": int,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return out


def _merged(args, file_cfg: dict, key: str, default):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in file_cfg:
        return file_cfg[key]
    return default


def build_configs(args, file_cfg) -> tuple[LMConfig, ResidualConfig]:
    lm = LMConfig(
        lambda0=_merged(args, file_cfg, "lambda0", 1e-3),
        lambda_up=_merged(args, file_cfg, "lambda_up", 10.0),
        lambda_down=_merged(args, file_cfg, "lambda_down", 0.1),
        fd_step=_merged(args, file_cfg, "fd_step", 1e-6),
        tol_residual=_merged(args, file_cfg, "tol_residual", 1e-8),
        tol_step=_merged(args, file_cfg, "tol_step", 1e-10),
        max_iters=_merged(args, file_cfg, "max_iters", 50),
        threads=_merged(args, file_cfg, "threads", 1),
    )
    res = ResidualConfig(
        outer_nodes=_merged(args, file_cfg, "outer_nodes", None),
        inner_quad=QuadConfig(
            abs_tol=_merged(args, file_cfg, "inner_abs_tol", 1e-10),
            rel_tol=_merged(args, file_cfg, "inner_rel_tol", 1e-10),
        ),
        split_halfwidth_z=_merged(args, file_cfg, "split_halfwidth_z", 2.0),
        split_halfwidth_end=_merged(args, file_cfg, "split_halfwidth_end", 2.0),
        series_order=_merged(args, file_cfg, "series_order", 2),
        include_endpoint=_merged(args, file_cfg, "include_endpoint", True),
    )
    return lm, res


def _profile_json(profile, report, N: int) -> str:
    doc = {
        "meta": {"version": "1", "N": N, "s": profile.s},
        "values": [float(v) for v in profile.values],
        **report.to_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cmd_solve(args, file_cfg) -> int:
    s = _merged(args, file_cfg, "s", None)
    if s is None:
        raise UsageError("solve requires --s")
    if s < 0:
        raise UsageError(f"slope must be nonnegative, got {s}")
    N = _merged(args, file_cfg, "n", 129)
    lm, res = build_configs(args, file_cfg)
    profile, report = solve_profile(s, N, lm, res)
    text = _profile_json(profile, report, N)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if not report.converged:
        print(
            f"solver did not converge at s={s}: residual {report.residual_norm:.3e} "
            f"after {report.iterations} iterations",
            file=sys.stderr,
        )
        return EX_SOLVER
    return EX_OK


def cmd_continue(args, file_cfg) -> int:
    s_max = _merged(args, file_cfg, "s_max", None)
    if s_max is None:
        raise UsageError("continue requires --s-max")
    ds = _merged(args, file_cfg, "ds", 0.1)
    if s_max <= 0 or ds <= 0:
        raise UsageError("s_max and ds must be positive")
    nsteps = round(s_max / ds)
    if nsteps < 1 or abs(nsteps * ds - s_max) > 1e-9 * max(1.0, abs(s_max)):
        raise UsageError(f"s_max={s_max} is not a multiple of ds={ds}")
    N = _merged(args, file_cfg, "n", 129)
    lm, res = build_configs(args, file_cfg)
    branch = continue_branch(s_max, ds, N, lm, res)
    if args.output:
        save_branch(branch, args.output)
    else:
        from .continuation import branch_to_json

        print(branch_to_json(branch))
    if branch.failure is not None:
        last = branch.steps[-1].s if branch.steps else 0.0
        print(
            f"branch truncated at s={branch.failure[0]}; last converged step s={last}",
            file=sys.stderr,
        )
        return EX_TRUNCATED
    return EX_OK


def _load_branch_or_exit(path) -> Branch:
    try:
        branch = load_branch(path)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read branch file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_DATA)
    if not branch.steps:
        print(f"branch file {path} contains no steps", file=sys.stderr)
        raise SystemExit(EX_DATA)
    return branch


def cmd_validate(args, file_cfg) -> int:
    branch = _load_branch_or_exit(args.branch)
    print(f"{'s':>8} {'H1(kappa_arctan)':>18} {'H1(theorem_arctan)':>19} {'max|k-ref|':>12}")
    distances = []
    for st in branch.steps:
        rk = h1_distance(st.profile, "kappa_arctan")
        rt = h1_distance(st.profile, "theorem_arctan")
        distances.append((st.s, rk.h1_distance))
        print(f"{st.s:8.3f} {rk.h1_distance:18.6e} {rt.h1_distance:19.6e} "
              f"{rk.linf_distance:12.4e}")
    small = [(s, d) for s, d in distances if s <= args.s_window + 1e-12]
    if len(small) < 2:
        print("order undefined: need at least two steps in the small-s window",
              file=sys.stderr)
        return EX_SOFT
    svals, dists = zip(*small)
    order = fit_loglog_slope(svals, dists)
    print(f"fitted H1-discrepancy order over s<={args.s_window:g}: {order:.3f}")
    if branch.ds > 0 and len(branch.steps) >= 2:
        try:
            d = ds_derivative_check(branch, branch.steps[0].s)
            print(f"derivative-quotient H1 distance at s={branch.steps[0].s:g}: {d:.4e}")
        except KeyError:
            pass
    if 2.5 <= order <= 3.5:
        return EX_OK
    print(f"fitted order {order:.3f} outside [2.5, 3.5]", file=sys.stderr)
    return EX_SOFT


def cmd_export(args, file_cfg) -> int:
    branch = _load_branch_or_exit(args.branch)
    if args.s_list:
        s_values = args.s_list
        missing = []
        for s in s_values:
            try:
                branch.step_at(s)
            except KeyError:
                missing.append(s)
        if missing:
            print(f"slope values {missing} not present in branch", file=sys.stderr)
            return EX_DATA
    else:
        s_values = [s for s in FIGURE_S_DEFAULTS[args.figure]
                    if any(abs(st.s - s) <= 1e-9 for st in branch.steps)]
        if not s_values:
            print(
                f"none of the default slopes {FIGURE_S_DEFAULTS[args.figure]} "
                "are present in the branch; use --s-list",
                file=sys.stderr,
            )
            return EX_DATA
    y_range = tuple(args.y_range) if args.y_range else None
    table = figure_data(branch, args.figure, s_values, y_range, args.samples)
    text = table.to_csv()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EX_OK


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--n", type=int, help="grid nodes (default 129)")
    p.add_argument("--outer-nodes", dest="outer_nodes", type=int,
                   help="outer trapezoid nodes (default 10*N)")
    p.add_argument("--inner-abs-tol", dest="inner_abs_tol", type=float)
    p.add_argument("--inner-rel-tol", dest="inner_rel_tol", type=float)
    p.add_argument("--split-halfwidth-z", dest="split_halfwidth_z", type=float)
    p.add_argument("--split-halfwidth-end", dest="split_halfwidth_end", type=float)
    p.add_argument("--series-order", dest="series_order", type=int, choices=(1, 2))
    p.add_argument("--no-endpoint-equation", dest="include_endpoint",
                   action="store_const", const=False,
                   help="collocate only at z_1..z_{N-2}")
    p.add_argument("--lambda0", type=float)
    p.add_argument("--lambda-up", dest="lambda_up", type=float)
    p.add_argument("--lambda-down", dest="lambda_down", type=float)
    p.add_argument("--fd-step", dest="fd_step", type=float)
    p.add_argument("--tol-residual", dest="tol_residual", type=float)
    p.add_argument("--tol-step", dest="tol_step", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--threads", type=int, help="worker cap for Jacobian columns")


def make_parser() -> _Parser:
    parser = _Parser(prog="muskatss",
                     description="self-similar profiles of the Muskat slope equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one slope value")
    p.add_argument("--s", type=float, help="target far-field slope (>= 0)")
    p.add_argument("--output", "-o", help="profile JSON output path")
    _add_common(p)

    p = sub.add_parser("continue", help="continuation in s")
    p.add_argument("--s-max", dest="s_max", type=float)
    p.add_argument("--ds", type=float, help="step size (default 0.1)")
    p.add_argument("--output", "-o", help="branch JSON output path")
    _add_common(p)

    p = sub.add_parser("validate", help="H1 discrepancy report for a branch file")
    p.add_argument("branch", help="branch JSON file")
    p.add_argument("--s-window", dest="s_window", type=float, default=0.45,
                   help="small-s window for the order fit (default 0.45)")
    _add_common(p)

    p = sub.add_parser("export", help="figure data as CSV")
    p.add_argument("branch", help="branch JSON file")
    p.add_argument("--figure", required=True,
                   choices=("discrepancy", "normalized", "integrated"))
    p.add_argument("--s-list", dest="s_list", type=float, nargs="+",
                   help="slope values (default: the reference figure set)")
    p.add_argument("--y-range", dest="y_range", type=float, nargs=2,
                   help="sampling range for y-based figures")
    p.add_argument("--samples", type=int, default=401)
    p.add_argument("--output", "-o", help="CSV output path")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        file_cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
        threads = _merged(args, file_cfg, "threads", 1)
        if threads < 1:
            raise UsageError(f"--threads must be >= 1, got {threads}")
        handler = {
            "solve": cmd_solve,
            "continue": cmd_continue,
            "validate": cmd_validate,
            "export": cmd_export,
        }[args.command]
        return handler(args, file_cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EX_OK


if __name__ == "__main__":
    sys.exit(main())
