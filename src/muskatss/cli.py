"""Command-line front end.

Four subcommands: ``solve`` (one slope value), ``continue`` (march the
branch), ``validate`` (order-of-accuracy report for a stored branch) and
``export`` (CSV data behind the standard figures).  All numerical
defaults equal the reference settings (N = 129, ds = 0.1, outer nodes
10*N).  For ``solve`` and ``continue`` a flat key=value config file can
override them, and command-line flags override the file; both take one
flag or key per entry of ``continuation.SETTINGS``.

Exit codes: 0 success, 1 soft validation failure, 2 solver failure,
3 truncated branch, 64 usage error (an unreadable --config, an
unwritable --output and a request too large for memory included), 65
bad data file (one that cannot be read or evaluated).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .continuation import (
    S_MATCH_TOL,
    SETTINGS,
    Branch,
    branch_to_json,
    continue_branch,
    load_branch,
    make_configs,
    solve_profile,
)
# h1_distance is unused here but stays importable: bench/tracer.py wraps it
from .diagnostics import (  # noqa: F401
    ds_derivative_check,
    figure_data,
    fit_loglog_slope,
    h1_distance,
    h1_distances,
)
from .lm import SolverError
from .quadrature import QuadratureError

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

# config-file key -> parser: the run's own keys plus every solver setting
_CONFIG_KEYS = {
    "n": int, "ds": float, "s": float, "s_max": float,
    **{name: kind for name, (kind, _) in SETTINGS.items()},
}


class UsageError(Exception):
    pass


class DataError(Exception):
    """A branch file that cannot be read or evaluated (exit 65)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e4" for an option unless it matches this
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def read_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; unknown keys rejected."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out = {}
    for lineno, raw in enumerate(lines, 1):
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


def _check_output(path) -> None:
    """Fail before any work when ``path`` cannot be created or overwritten."""
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise UsageError(f"cannot write output file {path}")


def _write_output(path, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path was given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _within_memory():
    """A requested problem that does not fit in memory is a usage error."""
    try:
        yield
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise UsageError(f"requested problem is too large for memory{detail}") from exc


def _print_progress(step, seconds: float) -> None:
    report = step.report
    print(f"s={step.s:g} iterations={report.iterations} "
          f"residual={report.residual_norm:.3e} seconds={seconds:.2f}",
          file=sys.stderr, flush=True)


def _run_settings(args) -> dict:
    """Config-file values overridden by every flag that was given."""
    merged = read_config_file(args.config) if args.config else {}
    merged.update((key, value) for key, value in vars(args).items()
                  if key in _CONFIG_KEYS and value is not None)
    return merged


def _profile_json(profile, report, N: int) -> str:
    doc = {
        "meta": {"version": "1", "N": N, "s": profile.s},
        "values": [float(v) for v in profile.values],
        **report.to_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cmd_solve(args) -> int:
    cfg = _run_settings(args)
    if "s" not in cfg:
        raise UsageError("solve requires --s")
    s, N = cfg["s"], cfg.get("n", 129)
    lm, res = make_configs(cfg)
    _check_output(args.output)
    try:
        profile, report = solve_profile(s, N, lm, res)
    except SolverError as exc:
        print(f"solver failed at s={s}: {exc}", file=sys.stderr)
        return EX_SOLVER
    _write_output(args.output, _profile_json(profile, report, N) + "\n")
    if not report.converged:
        print(
            f"solver did not converge at s={s}: residual {report.residual_norm:.3e} "
            f"after {report.iterations} iterations",
            file=sys.stderr,
        )
        return EX_SOLVER
    return EX_OK


def cmd_continue(args) -> int:
    cfg = _run_settings(args)
    if "s_max" not in cfg:
        raise UsageError("continue requires --s-max")
    lm, res = make_configs(cfg)
    _check_output(args.output)
    branch = continue_branch(cfg["s_max"], cfg.get("ds", 0.1), cfg.get("n", 129), lm, res,
                             on_step=_print_progress if args.progress else None)
    _write_output(args.output, branch_to_json(branch) + "\n")
    if branch.failure is not None:
        last = branch.steps[-1].s if branch.steps else 0.0
        print(
            f"branch truncated at s={branch.failure[0]}; last converged step s={last}",
            file=sys.stderr,
        )
        return EX_TRUNCATED
    return EX_OK


def _load_branch(path) -> Branch:
    try:
        branch = load_branch(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"cannot read branch file {path}: {exc}") from exc
    if not branch.steps:
        raise DataError(f"branch file {path} contains no steps")
    return branch


@contextlib.contextmanager
def _evaluating(path):
    """Branch data that loads but cannot be evaluated is bad data too.

    numpy's overflow warnings are not shown: a non-finite integrand raises
    QuadratureError, whose one line is the report.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (ArithmeticError, ValueError, QuadratureError) as exc:
        raise DataError(f"cannot evaluate branch file {path}: {exc}") from exc


def cmd_validate(args) -> int:
    if not (math.isfinite(args.s_window) and args.s_window >= 0):
        raise UsageError(f"--s-window must be finite and >= 0, got {args.s_window}")
    branch = _load_branch(args.branch)
    with _evaluating(args.branch):
        print(f"{'s':>8} {'H1(kappa_arctan)':>18} {'H1(theorem_arctan)':>19} {'max|k-ref|':>12}")
        profiles = [st.profile for st in branch.steps]
        distances = []
        for st, rk, rt in zip(branch.steps, h1_distances(profiles, "kappa_arctan"),
                              h1_distances(profiles, "theorem_arctan")):
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


def cmd_export(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be >= 0, got {args.samples}")
    y_range = tuple(args.y_range) if args.y_range else None
    if y_range and not all(map(math.isfinite, y_range)):
        raise UsageError(f"--y-range must be finite, got {args.y_range}")
    _check_output(args.output)
    branch = _load_branch(args.branch)

    def present(s):
        return any(abs(st.s - s) <= S_MATCH_TOL for st in branch.steps)

    if args.s_list:
        missing = [s for s in args.s_list if not present(s)]
        if missing:
            raise DataError(f"slope values {missing} not present in branch")
        s_values = args.s_list
    else:
        s_values = [s for s in FIGURE_S_DEFAULTS[args.figure] if present(s)]
        if not s_values:
            raise DataError(f"none of the default slopes {FIGURE_S_DEFAULTS[args.figure]} "
                            "are present in the branch; use --s-list")
    with _evaluating(args.branch):
        text = figure_data(branch, args.figure, s_values, y_range, args.samples).to_csv()
    _write_output(args.output, text)
    return EX_OK


def _add_run_flags(p):
    """--config plus one flag per setting; an unset flag defers to the file."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--n", type=int, help="grid nodes (default 129)")
    for name, (kind, _) in SETTINGS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)


@functools.cache
def make_parser() -> _Parser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(prog="muskatss",
                     description="self-similar profiles of the Muskat slope equation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one slope value")
    p.add_argument("--s", type=float, help="target far-field slope (>= 0)")
    p.add_argument("--output", "-o", help="profile JSON output path")
    _add_run_flags(p)

    p = sub.add_parser("continue", help="continuation in s")
    p.add_argument("--s-max", dest="s_max", type=float)
    p.add_argument("--ds", type=float, help="step size (default 0.1)")
    p.add_argument("--output", "-o", help="branch JSON output path")
    p.add_argument("--progress", action="store_true",
                   help="print s, iterations, residual and seconds of each step to stderr")
    _add_run_flags(p)

    p = sub.add_parser("validate", help="H1 discrepancy report for a branch file")
    p.add_argument("branch", help="branch JSON file")
    p.add_argument("--s-window", dest="s_window", type=float, default=0.45,
                   help="small-s window for the order fit (default 0.45)")

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
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "continue": cmd_continue,
    "validate": cmd_validate,
    "export": cmd_export,
}


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        with _within_memory():
            return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(exc, file=sys.stderr)
        return EX_DATA
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EX_OK


if __name__ == "__main__":
    sys.exit(main())
