"""Self-test of the benchmark at a tiny size (N=17, two steps, one branch).

    python3 bench/selftest.py

Checks, in about a minute:

1. ``bench/run.py --size tiny`` on every workload and trace mode prints a
   last line with exactly the keys ``correct, attempted, failed,
   metrics``, passes its checks, and emits exactly the metrics that
   ``BENCHMARK.json`` lists for that mode, each with the listed unit.
2. A deliberately corrupted output raises ``failed_frac`` above 0: a
   perturbed solver result on the solve workloads, a perturbed figure
   table behind the exported CSV on ``validate``.
3. In a directory that holds only ``BENCHMARK.json`` and ``bench/``, the
   benchmark exits with a code other than 0 and prints no result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("bench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_emitted(spec, problems):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: checks failed\n{proc.stdout}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                f"units {[(k, got[k]) for k in got if wanted[trace].get(k) not in (None, got[k])]}")
            if len(problems) == before:
                print(f"ok: {tag} emits {len(got)} metrics", flush=True)


def check_corruption(problems):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import child
    from muskatss import cli, continuation

    def perturbed_solve(inner):
        def solve(r, x0, cfg=None):
            report = inner(r, x0, cfg)
            report.solution = report.solution * (1.0 + 1e-3)
            return report
        return solve

    def perturbed_figure(inner):
        def figure(*args, **kwargs):
            table = inner(*args, **kwargs)
            table.columns[0, -1] += 1e-6
            return table
        return figure

    cases = [("branch-coarse", continuation, "lm_solve", perturbed_solve),
             ("branch-ref", continuation, "lm_solve", perturbed_solve),
             ("validate", cli, "figure_data", perturbed_figure)]
    for workload, module, attr, corrupt in cases:
        original = getattr(module, attr)
        setattr(module, attr, corrupt(original))
        try:
            record = child.run(workload, 1, 0.1, False, "tiny")
        finally:
            setattr(module, attr, original)
        attempted = sum(u["attempted"] for u in record["untraced"])
        failed = sum(u["failed"] for u in record["untraced"])
        if failed == 0:
            problems.append(f"{workload}: corrupted {attr} left failed_frac at 0")
        else:
            print(f"ok: corrupted {workload} output gives failed_frac {failed}/{attempted}",
                  flush=True)


def check_bare_directory(problems):
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, RUN, "--workload", "validate", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok: without the package the benchmark exits with code {proc.returncode}",
              flush=True)


def main() -> int:
    problems = []
    check_emitted(_spec(), problems)
    check_corruption(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
