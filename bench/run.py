"""Benchmark of the muskatss package: one seeded workload, timed and checked.

    python3 bench/run.py --workload {branch-ref,branch-coarse,validate} \\
        --seed N --seconds T --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout that holds ``src/muskatss``.  The
workload runs in fresh child processes (``bench/child.py``) with BLAS
threads pinned to 1, so set-up time and peak memory belong to it alone:
``SETUP_PROBES`` processes only set up, one more sets up and then runs.
``setup_s`` is the median set-up time of all of them.

Each run checks the program's outputs (see ``bench/workloads.py``).
Human-readable lines come first; the last line of standard output is
one JSON object ``{correct, attempted, failed, metrics}`` holding the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A fuller record, with the environment, goes to
``.bench_out/results/``.  If the program cannot be run at all, the exit
code is not 0 and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_s.p50": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# p90 is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv: list, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        raise BenchError(f"child failed with exit code {proc.returncode}: "
                         f"{' '.join(argv)}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(record: dict, setups: list) -> tuple[dict, list]:
    """End-to-end metrics of the untraced units, plus report-only lines."""
    units = record["untraced"]
    wall = [u["wall_s"] for u in units]
    items = sorted(x for u in units for x in u["items"])
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(wall),
        "items_per_s": len(items) / sum(wall),
        "item_s.p50": statistics.median(items),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = [f"samples: setup_s n={len(setups)}, run_s and cpu_s n={len(units)} units, "
             f"item_s n={len(items)} items"]
    if len(items) >= 10 * TAIL_SAMPLES:
        p90 = statistics.quantiles(items, n=10, method="inclusive")[-1]
        notes.append(f"item_s.p90 = {p90!r} s (n={len(items)})")
    else:
        notes.append(f"item_s.p90 not reported: n={len(items)} < {10 * TAIL_SAMPLES}")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("branch-ref", "branch-coarse", "validate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "muskatss", "__init__.py")):
        print(f"error: {ROOT} holds no src/muskatss to benchmark", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size]
    try:
        setups = [_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        record = _child(base + ["--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])

    e2e, notes = end_to_end(record, setups)
    units = record["untraced"] + record.get("traced", [])
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    findings = record.get("determinism", [])
    env = record["env"]

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in e2e.items():
        print(f"{name:>12} = {value!r} {END_TO_END[name][0]}")
    print(f"{'failed_frac':>12} = {failed / attempted!r} ({failed}/{attempted} items)")
    for line in notes:
        print(line)
    for msg in (m for u in units for m in u["messages"]):
        print(f"check failed: {msg}")
    if args.trace:
        for name, value in record["layers"].items():
            print(f"{name:>34} = {value!r} {PER_LAYER[name][0]}")
        for msg in findings:
            print(f"determinism: MISMATCH {msg}")
        if not findings:
            print("determinism: exact counts agree")
        chosen = {k: (record["layers"][k], PER_LAYER[k][0]) for k in PER_LAYER}
    else:
        chosen = {k: (v, END_TO_END[k][0]) for k, v in e2e.items()}

    result = {
        "correct": failed == 0 and not findings,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    out = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump({"args": vars(args), "env": env, "setups_s": setups, "record": record,
                   "end_to_end": e2e, "notes": notes, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
