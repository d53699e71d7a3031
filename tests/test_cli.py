import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from muskatss.cli import (
    EX_DATA,
    EX_OK,
    EX_SOFT,
    EX_SOLVER,
    EX_USAGE,
    main,
    read_config_file,
)
from muskatss import cli, residual
from muskatss.continuation import load_branch

from conftest import synthetic_branch_doc

FAST = ["--n", "17", "--outer-nodes", "170"]
# settings that became constants; their flags and config keys are usage errors
REMOVED_SETTING_FLAGS = [("--inner-abs-tol", "1e-10"), ("--inner-rel-tol", "1e-10"),
                         ("--split-halfwidth-end", "2"), ("--series-order", "2"),
                         ("--lambda0", "1e-3"), ("--lambda-up", "10"), ("--lambda-down", "0.1"),
                         ("--split-halfwidth-z", "2")]


@pytest.fixture(scope="module")
def branch_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "branch.json"
    code = main(["continue", "--s-max", "0.2", "--ds", "0.1",
                 "-o", str(path)] + FAST)
    assert code == EX_OK
    return path


class TestUsageErrors:
    def test_negative_slope(self, tmp_path):
        assert main(["solve", "--s", "-1"]) == EX_USAGE

    def test_missing_slope(self):
        assert main(["solve"]) == EX_USAGE

    def test_smax_not_multiple_of_ds(self):
        assert main(["continue", "--s-max", "0.3", "--ds", "0.2"]) == EX_USAGE

    def test_unknown_figure(self, branch_file):
        assert main(["export", str(branch_file), "--figure", "bogus"]) == EX_USAGE

    @pytest.mark.parametrize("argv", [
        ["validate", "{branch}", "--lambda0", "1"],
        ["export", "{branch}", "--figure", "normalized", "--n", "17"],
        ["validate", "{branch}", "--config", "{cfg}"],
        ["solve", "--s", "0", "--n", "9", "--no-endpoint-equation"],
        ["solve", "--s", "0", "--n", "9", "--fd-step", "1e-6"],
        ["continue", "--s-max", "0.1", "--n", "9", "--fd-step", "1e-6"],
        ["solve", "--s", "0", "--n", "9", "--threads", "2"],
        ["continue", "--s-max", "0.1", "--n", "9", "--threads", "2"],
        *[[*command, "--n", "9", flag, value]
          for flag, value in REMOVED_SETTING_FLAGS
          for command in (["solve", "--s", "0"], ["continue", "--s-max", "0.1"])],
    ])
    def test_flag_not_taken(self, branch_file, tmp_path, argv):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert main([a.format(branch=branch_file, cfg=cfg) for a in argv]) == EX_USAGE

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_slope(self, capsys, s):
        assert main(["solve", "--s", s, "--n", "9", "--outer-nodes", "40"]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "slope" in err and s in err

    def test_non_finite_setting(self):
        assert main(["solve", "--s", "0.1", "--n", "9", "--outer-nodes", "40",
                     "--tol-step", "nan"]) == EX_USAGE

    @pytest.mark.parametrize("flag, value, field", [("--max-iters", "0", "max_iters"),
                                                    ("--tol-step", "nan", "tol_step")])
    def test_bad_setting_named(self, capsys, flag, value, field):
        # the message names the setting given, and not threads, which the
        # command line has no flag for
        assert main(["solve", "--s", "0.1", "--n", "9", flag, value]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err and value in err
        assert "threads" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["solve", "--s", "0", "--config", str(path)]) == EX_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["solve", "--s", "0.05"],
                                         ["continue", "--s-max", "0.05", "--ds", "0.05"]])
    def test_inner_tolerance_below_floor(self, tmp_path, command):
        # the inner tolerance is a constant, so a config file cannot set one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inner_abs_tol=1e-300\n")
        assert main(command + ["--n", "9", "--outer-nodes", "40", "--max-iters", "3",
                               "--config", str(cfg)]) == EX_USAGE

    @pytest.mark.parametrize("command", [
        ["solve", "--s", "0.1"] + FAST,
        ["continue", "--s-max", "0.1"] + FAST,
        ["export", "{branch}", "--figure", "normalized"],
    ], ids=["solve", "continue", "export"])
    def test_unwritable_output(self, branch_file, tmp_path, monkeypatch, capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "continue_branch", never)
        monkeypatch.setattr(cli, "solve_profile", never)
        out = str(tmp_path / "missing" / "out")
        argv = [a.format(branch=branch_file) for a in command] + ["-o", out]
        assert main(argv) == EX_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and out in err

    @pytest.mark.parametrize("flags", [["--samples", "-3"], ["--y-range", "nan", "1"],
                                       ["--y-range", "-1e308", "1e308"]])
    def test_bad_flag_checked_before_branch_file(self, tmp_path, flags):
        assert main(["export", str(tmp_path / "absent.json"), "--figure", "integrated"]
                    + flags) == EX_USAGE

    @pytest.mark.parametrize("window", ["nan", "inf", "-inf", "-1"])
    def test_bad_s_window(self, branch_file, tmp_path, capsys, window):
        for path in (branch_file, tmp_path / "absent.json"):
            assert main(["validate", str(path), "--s-window", window]) == EX_USAGE
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("usage error:") and "--s-window" in err


class TestSolve:
    def test_solver_error_exits_2(self, capsys):
        # the one-line message is the whole report: no numpy warnings either
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", "--s", "1e300", "--n", "9", "--outer-nodes", "40"]) == EX_SOLVER
        assert capsys.readouterr().err.count("\n") == 1

    def test_overflowing_inputs_exit_2_with_one_line(self):
        # the residual's input products overflow at s = 1e308; in a child
        # process, under Python's default warning filter, so that a numpy
        # warning would count as a stderr line
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-m", "muskatss.cli", "solve", "--s", "1e308",
                              "--n", "9"], capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == EX_SOLVER, out.stderr
        assert out.stderr.count("\n") == 1, out.stderr

    def test_zero_slope_writes_zero_profile(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["solve", "--s", "0", "-o", str(out)] + FAST) == EX_OK
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert all(v == 0.0 for v in doc["values"])

    def test_small_solve_writes_profile(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["solve", "--s", "0.1", "-o", str(out)] + FAST) == EX_OK
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["values"][-1] == pytest.approx(0.1, abs=1e-8)
        assert doc["meta"]["N"] == 17

    def test_same_format_version_as_a_branch(self, tmp_path, branch_file):
        out = tmp_path / "p.json"
        assert main(["solve", "--s", "0.1", "-o", str(out)] + FAST) == EX_OK
        version = json.loads(out.read_text())["meta"]["version"]
        assert version == json.loads(branch_file.read_text())["meta"]["version"]

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["solve", "--s", "0.1", "-o", str(a)] + FAST) == EX_OK
        assert main(["solve", "--s", "0.1", "-o", str(b)] + FAST) == EX_OK
        assert a.read_bytes() == b.read_bytes()


_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from muskatss.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["solve", "--s", "0.1", "--n", "100000000"],
    ["solve", "--s", "0.1", "--n", "17", "--outer-nodes", "100000000000"],
    ["continue", "--s-max", "0.2", "--ds", "0.1", "--n", "100000000"],
    ["export", "{branch}", "--figure", "normalized", "--s-list", "0.1",
     "--samples", "100000000000"],
], ids=["solve-n", "solve-outer-nodes", "continue-n", "export-samples"])
def test_too_large_for_memory(branch_file, argv):
    # run under a 1 GiB address-space cap, so the failing allocation is cheap
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [a.format(branch=branch_file) for a in argv]
    out = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == EX_USAGE, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and "too large for memory" in lines[0], out.stderr


def test_discretization_too_large_for_memory(monkeypatch, capsys):
    # N=9 with 10^6 outer nodes needs about 175 MiB of pair geometry and P
    # table, refused before any of it is built against 64 MiB of memory
    monkeypatch.setattr(residual, "_physical_memory", lambda: 64 << 20)
    assert main(["solve", "--s", "0.1", "--n", "9", "--outer-nodes", "1000000"]) == EX_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "too large for memory" in lines[0]
    assert "N=9 with 1000000 outer nodes" in lines[0]


def test_validate_too_large_for_memory(branch_file, monkeypatch, capsys):
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "h1_distances", allocate)
    assert main(["validate", str(branch_file)]) == EX_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "too large for memory" in lines[0]


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None      # every import of scipy now raises ImportError
from muskatss.cli import main
fast = ["--n", "17", "--outer-nodes", "170"]
branch = sys.argv[1] + "/b.json"
codes = [main(["solve", "--s", "0.1", "-o", sys.argv[1] + "/p.json"] + fast),
         main(["continue", "--s-max", "0.2", "--ds", "0.1", "-o", branch] + fast),
         main(["validate", branch])]
for figure in ("discrepancy", "normalized", "integrated"):
    codes.append(main(["export", branch, "--figure", figure, "--s-list", "0.1", "0.2",
                       "--samples", "41", "-o", sys.argv[1] + f"/{figure}.csv"]))
print(json.dumps(codes))
"""


class TestWithoutScipy:
    """scipy is the tests' oracle only: the package runs and imports without it."""

    def _run(self, code, *argv):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})

    def test_every_command_runs(self, tmp_path):
        out = self._run(_WITHOUT_SCIPY, str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [EX_OK] * 6

    def test_import_loads_no_scipy(self):
        out = self._run("import sys, muskatss.cli; "
                        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestContinue:
    def test_progress_goes_to_stderr_only(self, tmp_path, capsys):
        argv = ["continue", "--s-max", "0.2", "--ds", "0.1"] + FAST
        runs = []
        for extra in ([], ["--progress"]):
            assert main(argv + extra) == EX_OK
            out, err = capsys.readouterr()
            path = tmp_path / f"branch{len(runs)}.json"
            assert main(argv + extra + ["-o", str(path)]) == EX_OK
            runs.append((out, err, path.read_bytes(), capsys.readouterr().err))
        (out, err, doc, file_err), (pout, perr, pdoc, pfile_err) = runs
        assert out and pout == out and pdoc == doc
        assert err == file_err == ""
        for text in (perr, pfile_err):
            lines = text.splitlines()
            assert [line.split()[0] for line in lines] == ["s=0.1", "s=0.2"]
            assert all("iterations=" in line and "seconds=" in line for line in lines)

    def test_branch_file_contents(self, branch_file):
        branch = load_branch(branch_file)
        assert len(branch.steps) == 2
        assert branch.s_values == pytest.approx([0.1, 0.2])

    def test_step_arithmetic(self, tmp_path):
        # 5 steps at ds = 0.1 reach 0.5 (checked without solving)
        assert round(0.5 / 0.1) == 5
        assert main(["continue", "--ds", "0.1"]) == EX_USAGE  # missing --s-max


class TestValidate:
    def test_happy_path(self, branch_file, capsys):
        code = main(["validate", str(branch_file)])
        out = capsys.readouterr().out
        assert "fitted H1-discrepancy order" in out
        assert code in (EX_OK, EX_SOFT)

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EX_DATA

    def test_old_file_with_removed_settings_runs(self, tmp_path):
        # files written while these were settings store them; they are ignored
        doc = synthetic_branch_doc()
        doc["meta"]["tolerances"].update(inner_abs_tol=1e-15, inner_rel_tol=1e-10,
                                         split_halfwidth_end=2.5, series_order=1,
                                         lambda0=2e-3, lambda_up=5.0, lambda_down=0.2,
                                         split_halfwidth_z=1.3)
        assert len(doc["meta"]["tolerances"]) == 12
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) in (EX_OK, EX_SOFT)
        assert main(["export", str(path), "--figure", "normalized",
                     "-o", str(tmp_path / "n.csv")]) == EX_OK

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EX_DATA

    @pytest.mark.parametrize("command", [["validate"], ["export", "--figure", "normalized"]])
    @pytest.mark.parametrize("doc", ["[1, 2]", None], ids=["top-level-list", "string-N"])
    def test_wrongly_typed_file(self, branch_file, tmp_path, command, doc):
        if doc is None:
            data = json.loads(branch_file.read_text())
            data["meta"]["N"] = "17"
            doc = json.dumps(data)
        bad = tmp_path / "typed.json"
        bad.write_text(doc)
        assert main([command[0], str(bad)] + command[1:]) == EX_DATA

    def test_empty_branch(self, tmp_path):
        empty = tmp_path / "empty.json"
        doc = {"meta": {"version": "1", "N": 17, "ds": 0.1, "tolerances": {
            "lambda0": 1e-3, "lambda_up": 10.0, "lambda_down": 0.1,
            "tol_residual": 1e-8, "tol_step": 1e-10,
            "max_iters": 50, "outer_nodes": 170, "inner_abs_tol": 1e-10,
            "inner_rel_tol": 1e-10, "split_halfwidth_z": 2.0,
            "split_halfwidth_end": 2.0, "series_order": 2}}, "steps": []}
        empty.write_text(json.dumps(doc))
        assert load_branch(empty).steps == []
        assert main(["validate", str(empty)]) == EX_DATA

    def test_stdout_independent_of_blas_threads(self, tmp_path):
        # every step's H1 integral runs in one batched GK15 loop, whose
        # matrix-vector products go through BLAS
        branch = tmp_path / "branch.json"
        branch.write_text(json.dumps(synthetic_branch_doc(N=129, nsteps=70)))
        src = Path(__file__).resolve().parents[1] / "src"
        stdout = {}
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-m", "muskatss.cli", "validate", str(branch)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
            assert run.returncode == EX_OK, run.stderr
            stdout[threads] = run.stdout
        assert len(stdout["1"].splitlines()) == 73 and stdout["1"] == stdout["2"]

    def test_single_step_soft_failure(self, tmp_path):
        out = tmp_path / "single.json"
        assert main(["continue", "--s-max", "0.1", "--ds", "0.1",
                     "-o", str(out)] + FAST) == EX_OK
        assert main(["validate", str(out)]) == EX_SOFT


def _bad_steps(doc, i=1, **fields):
    doc["steps"][i].update(fields)


def _huge_interior(doc):
    values = doc["steps"][0]["values"]
    values[1:-1] = [1e300] * (len(values) - 2)


def _huge_slope(doc):
    for step in doc["steps"]:
        step["values"] = [v * 1e300 for v in step["values"]]
        step["s"] = step["values"][-1]


def _missed_end_value(doc):
    doc["steps"][1]["values"][-1] += 1e-3


class TestUnevaluableBranch:
    """Branch data that loads as JSON but cannot be evaluated exits 65."""

    @pytest.mark.parametrize("mutate, argv", [
        (lambda d: None, ["export", "--figure", "integrated",
                          "--y-range", "-100000000", "100000000"]),
        (_huge_interior, ["validate"]),
        (_huge_slope, ["validate"]),
        (lambda d: d["meta"].update(ds="x"), ["validate"]),
        (lambda d: _bad_steps(d, 0, s="0.1"), ["export", "--figure", "normalized"]),
        (_missed_end_value, ["validate"]),
        (lambda d: _bad_steps(d, s=float("nan")), ["validate"]),
        (lambda d: _bad_steps(d, s=-0.2), ["validate"]),
        (lambda d: _bad_steps(d, 0, s=0.0), ["export", "--figure", "normalized",
                                             "--s-list", "0"]),
    ], ids=["integrated-huge-range", "huge-values", "huge-slope", "string-ds",
            "string-s", "end-value-misses-s", "nan-s", "negative-s", "normalized-zero-s"])
    def test_exit_65_with_one_line(self, tmp_path, mutate, argv):
        # in a child process, so that Python warnings count as stderr lines too
        doc = synthetic_branch_doc()
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-m", "muskatss.cli", argv[0], str(path), *argv[1:]],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == EX_DATA, out.stderr
        assert out.stderr.count("\n") == 1, out.stderr


class TestExport:
    def test_discrepancy_csv(self, branch_file, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["export", str(branch_file), "--figure", "discrepancy",
                     "--s-list", "0.1", "0.2", "-o", str(out)])
        assert code == EX_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "z,s=0.1,s=0.2"

    def test_default_slope_set_missing(self, branch_file):
        # the reference discrepancy figure uses slopes >= 1, absent here
        assert main(["export", str(branch_file), "--figure", "discrepancy"]) == EX_DATA

    def test_normalized_defaults_present(self, branch_file, tmp_path):
        out = tmp_path / "n.csv"
        code = main(["export", str(branch_file), "--figure", "normalized",
                     "-o", str(out)])
        assert code == EX_OK
        assert out.read_text().startswith("y,s=0.1,s=0.2")

    def test_integrated_with_range(self, branch_file, tmp_path):
        out = tmp_path / "i.csv"
        code = main(["export", str(branch_file), "--figure", "integrated",
                     "--y-range", "-50", "50", "--s-list", "0.1",
                     "--samples", "41", "-o", str(out)])
        assert code == EX_OK
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "y,s=0.1"
        assert len(rows) == 42

    def test_exponent_notation_range(self, branch_file, tmp_path):
        csv = []
        for lo, hi in (("-1e4", "1e4"), ("-10000", "10000")):
            out = tmp_path / f"{hi}.csv"
            assert main(["export", str(branch_file), "--figure", "integrated",
                         "--y-range", lo, hi, "--samples", "21", "-o", str(out)]) == EX_OK
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]

    def test_missing_s_value(self, branch_file):
        assert main(["export", str(branch_file), "--figure", "normalized",
                     "--s-list", "0.7"]) == EX_DATA

    def test_no_state_carried_between_calls(self, branch_file, tmp_path):
        # the parser is built once per process; an omitted --s-list is the default again
        assert cli.make_parser() is cli.make_parser()
        headers = []
        for extra in (["--s-list", "0.1"], []):
            out = tmp_path / f"n{len(headers)}.csv"
            assert main(["export", str(branch_file), "--figure", "normalized",
                         "-o", str(out)] + extra) == EX_OK
            headers.append(out.read_text().splitlines()[0])
        assert headers == ["y,s=0.1", "y,s=0.1,s=0.2"]
        assert cli.FIGURE_S_DEFAULTS["normalized"][:2] == (0.1, 0.2)

    def test_deterministic_csv(self, branch_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["export", str(branch_file), "--figure", "normalized",
                         "--s-list", "0.1", "-o", str(path)]) == EX_OK
        assert a.read_bytes() == b.read_bytes()

    def test_csv_bytes_independent_of_blas_threads(self, tmp_path):
        # no BLAS call builds the spline maps, so each figure's CSV is the
        # same at every BLAS thread count
        branch = tmp_path / "branch.json"
        branch.write_text(json.dumps(synthetic_branch_doc(N=129, nsteps=70)))
        src = Path(__file__).resolve().parents[1] / "src"
        csv = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            run = subprocess.run(
                [sys.executable, "-c", _EXPORT_EVERY_FIGURE, str(branch), str(out)],
                capture_output=True, text=True, timeout=300,
                env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
            assert run.returncode == 0, run.stderr
            csv[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(csv["1"]) == 3 and csv["1"] == csv["2"]


_EXPORT_EVERY_FIGURE = """
import sys
from muskatss.cli import main
sys.exit(max(main(["export", sys.argv[1], "--figure", figure,
                   "-o", f"{sys.argv[2]}/{figure}.csv"])
             for figure in ("discrepancy", "normalized", "integrated")))
"""


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=17\nouter_nodes=170  # cheap\nmax_iters=40\n")
        parsed = read_config_file(cfg)
        assert parsed == {"n": 17, "outer_nodes": 170, "max_iters": 40}
        out = tmp_path / "p.json"
        # CLI flag overrides the file value for n
        code = main(["solve", "--s", "0", "--config", str(cfg),
                     "--n", "9", "-o", str(out)])
        assert code == EX_OK
        assert json.loads(out.read_text())["meta"]["N"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["solve", "--s", "0", "--config", str(cfg)]) == EX_USAGE

    def test_removed_fd_step_key_rejected(self, tmp_path):
        # and the keys of the other settings that became constants
        cfg = tmp_path / "run.cfg"
        lines = ["fd_step=1e-6"] + [flag[2:].replace("-", "_") + "=" + value
                                    for flag, value in REMOVED_SETTING_FLAGS]
        for line in lines:
            cfg.write_text(line + "\n")
            for command in (["solve", "--s", "0"], ["continue", "--s-max", "0.1"]):
                assert main(command + ["--n", "9", "--config", str(cfg)]) == EX_USAGE, line
