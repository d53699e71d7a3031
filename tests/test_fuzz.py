"""Property tests: malformed config files, flag values and branch files
never crash the CLI.

Every run of ``main`` must return one of the documented exit codes for
its subcommand instead of raising.  Config files and flag values are run
through a small ``solve`` or ``continue`` whose problem size is pinned by
flags (a large ``n`` is requested work, not malformed input); branch files
are single mutations of a valid N = 17 synthetic branch.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from muskatss.cli import main
from muskatss.continuation import SETTINGS

from conftest import synthetic_branch_doc

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])
SOLVE_CODES = {0, 2, 64}
CONTINUE_CODES = {0, 3, 64}
VALIDATE_CODES = {0, 1, 65}
VALIDATE_FLAG_CODES = {0, 1, 64}
EXPORT_CODES = {0, 65}
EXPORT_FLAG_CODES = {0, 64, 65}

INT_KEYS = ("n", "max_iters", "outer_nodes")
FLOAT_KEYS = ("ds", "s", "s_max", "tol_residual", "tol_step")
SPECIAL_TEXT = ("nan", "inf", "-inf", "0", "-1", "1", "2", "3", "0.5", "1e300", "-1e300",
                "1e-300", "1e-3", "10", "", "x", "1e4", "true", "None", "9" * 30)
SPECIAL_FLOATS = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -1.0,
                  1e300, -1e300, 5e-324, 1e154)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


VALID = synthetic_branch_doc()
PATHS = [p for p in _paths(VALID) if p]

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from(SPECIAL_FLOATS), st.floats(), st.text(max_size=4),
)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_docs(draw):
    doc = json.loads(json.dumps(VALID))
    path = draw(st.sampled_from(PATHS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(("delete", "replace", "scale", "extend")))
    if op == "delete":
        del parent[key]
    elif op == "scale":
        factor = draw(st.sampled_from((1e10, 1e100, 1e300, -1e300, 0.0)))
        parent[key] = json.loads(json.dumps(parent[key]), parse_float=lambda v: float(v) * factor)
    elif op == "extend" and isinstance(parent[key], list):
        parent[key].append(draw(json_values))
    else:
        parent[key] = draw(json_values)
    return doc


# mostly well-typed pairs, so that most files reach the solver
int_pairs = st.tuples(st.sampled_from(INT_KEYS), st.integers(-3, 10 ** 4).map(str))
float_pairs = st.tuples(st.sampled_from(FLOAT_KEYS), st.one_of(
    st.sampled_from(SPECIAL_TEXT[:14]), st.floats().map(repr)))
any_pairs = st.tuples(st.sampled_from(INT_KEYS + FLOAT_KEYS), st.one_of(
    st.sampled_from(SPECIAL_TEXT), st.text(max_size=6)))
config_lines = st.one_of(
    st.one_of(int_pairs, float_pairs, float_pairs, float_pairs, any_pairs).map("=".join),
    st.text(max_size=12), st.just("# comment"),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(lines=st.lists(config_lines, max_size=6))
def test_config_file_gives_documented_code(fuzz_dir, lines):
    cfg = fuzz_dir / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
    code = main(["solve", "--config", str(cfg), "--s", "0.05", "--n", "9",
                 "--outer-nodes", "40", "--max-iters", "3",
                 "-o", str(fuzz_dir / "profile.json")])
    assert code in SOLVE_CODES


@FUZZ
@given(doc=mutated_docs(), figure=st.sampled_from(("discrepancy", "normalized", "integrated")))
def test_branch_file_gives_documented_code(fuzz_dir, doc, figure):
    path = fuzz_dir / "branch.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) in VALIDATE_CODES
    assert main(["export", str(path), "--figure", figure, "--s-list", "0.1", "0.2", "0.3",
                 "0.4", "0.5", "-o", str(fuzz_dir / "out.csv")]) in EXPORT_CODES


# the flags that set the problem size are pinned after the fuzzed ones
PINNED = ["--n", "9", "--outer-nodes", "40", "--max-iters", "3"]
flag_text = st.one_of(st.sampled_from(SPECIAL_TEXT), st.floats().map(repr),
                      st.integers(-3, 10 ** 4).map(str), st.text(max_size=4))
setting_flags = st.lists(st.tuples(
    st.sampled_from([name for name in SETTINGS if name not in ("outer_nodes", "max_iters")]),
    flag_text), max_size=4)
# at most 0.15 / 0.05 = 3 continuation steps; the rest are invalid
s_max_text = st.sampled_from(("nan", "inf", "-inf", "0", "-1", "0.05", "0.1", "0.15", "x", ""))
ds_text = st.sampled_from(("nan", "inf", "-inf", "0", "-0.05", "0.05", "0.1", "1e300", "x"))


def _flags(pairs):
    return [a for name, value in pairs for a in ("--" + name.replace("_", "-"), value)]


@FUZZ
@given(pairs=setting_flags, s=flag_text)
def test_solve_flags_give_documented_code(fuzz_dir, pairs, s):
    argv = ["solve", "--s", s] + _flags(pairs) + PINNED + ["-o", str(fuzz_dir / "p.json")]
    assert main(argv) in SOLVE_CODES


@FUZZ
@given(pairs=setting_flags, s_max=s_max_text, ds=ds_text)
def test_continue_flags_give_documented_code(fuzz_dir, pairs, s_max, ds):
    argv = (["continue", "--s-max", s_max, "--ds", ds] + _flags(pairs) + PINNED
            + ["-o", str(fuzz_dir / "b.json")])
    assert main(argv) in CONTINUE_CODES


@FUZZ
@given(s_window=st.one_of(flag_text, st.floats().map(repr)))
def test_validate_flags_give_documented_code(fuzz_dir, s_window):
    path = fuzz_dir / "valid.json"
    path.write_text(json.dumps(VALID))
    assert main(["validate", str(path), "--s-window", s_window]) in VALIDATE_FLAG_CODES


@FUZZ
@given(figure=st.sampled_from(("discrepancy", "normalized", "integrated")),
       s_list=st.lists(st.sampled_from(("0.1", "0.2", "0.5", "0.3")) | flag_text, max_size=3),
       y_range=st.none() | st.lists(flag_text, min_size=2, max_size=2),
       # no sample count that would allocate gigabytes in this process
       samples=st.none() | st.integers(-3, 2000).map(str)
       | st.sampled_from(("nan", "1e4", "0.5", "-0", "", "x")))
def test_export_flags_give_documented_code(fuzz_dir, figure, s_list, y_range, samples):
    path = fuzz_dir / "valid.json"
    path.write_text(json.dumps(VALID))
    argv = ["export", str(path), "--figure", figure, "-o", str(fuzz_dir / "out.csv")]
    if s_list:
        argv += ["--s-list", *s_list]
    if y_range is not None:
        argv += ["--y-range", *y_range]
    if samples is not None:
        argv += ["--samples", samples]
    assert main(argv) in EXPORT_FLAG_CODES
