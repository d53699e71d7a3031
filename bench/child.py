"""One workload in one fresh process; prints one JSON record as its last line.

    python3 bench/child.py --workload NAME --seed N --seconds T --trace 0|1
                           [--size full|tiny] [--setup-only]

``bench/run.py`` starts this with BLAS threads pinned to 1 and
``PYTHONPATH`` set to the checkout's ``src``.  Set-up time runs from
before the first import of numpy and muskatss to the end of the warm-up
call.  Units then repeat while the next one is expected to fit in
``--seconds`` (at least one runs).  With ``--trace 1`` the untraced units
are followed by traced units over a second ``--seconds`` budget; the
spans go to ``.bench_out/`` and the per-layer metrics into the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run_units(wl, seconds: float, tracer=None) -> list[dict]:
    """Repeat ``wl.run_unit`` while the next unit should end inside ``seconds``."""
    units, spent = [], 0.0
    while True:
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        latencies, output = wl.run_unit()
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.enabled = False
        attempted, failed, msgs = wl.check(output)
        units.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "items": latencies,
                      "attempted": attempted, "failed": failed, "messages": msgs,
                      "spans": (mark, len(tracer.spans)) if tracer else None})
        spent += t1 - t0
        if spent + (t1 - t0) > seconds:
            return units


def _code_digest() -> str:
    """Hash of the package and benchmark sources, keying stored counts."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "muskatss"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py") or name.endswith(".json"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _layer_report(wl, tracer, traced, untraced) -> tuple[dict, dict, list]:
    """Per-unit medians of the layer metrics, plus determinism findings."""
    from tracer import EXACT_COUNTS, layer_metrics

    per_unit = [layer_metrics(tracer.spans[a:b], wl.threads)
                for a, b in (u["spans"] for u in traced)]
    for u, (a, b) in zip(per_unit, (u["spans"] for u in traced)):
        u["trace.spans"] = b - a
    metrics = {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
    metrics["trace.overhead_s"] = (statistics.median(u["wall_s"] for u in traced)
                                   - statistics.median(u["wall_s"] for u in untraced))
    counts = {k: per_unit[0][k] for k in EXACT_COUNTS}
    findings = [f"{k} differs between traced units: {[u[k] for u in per_unit]}"
                for k in EXACT_COUNTS if len({u[k] for u in per_unit}) > 1]
    return metrics, counts, findings


def _check_counts(key: str, counts: dict) -> list:
    """Compare with the counts an earlier run of the same code and seed stored."""
    path = os.path.join(OUT, "counts", key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return [f"{k} = {counts[k]} here, {earlier[k]} in an earlier run of this seed"
                for k in counts if earlier.get(k) != counts[k]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return []


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        setup_only: bool = False, t_start: float | None = None) -> dict:
    """Set up, run and check one workload in this process; returns the record."""
    t_start = time.perf_counter() if t_start is None else t_start
    import workloads  # numpy and muskatss load here, inside the set-up time

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(name, seed, size, workdir)
    try:
        wl.setup()
        record = {"setup_s": time.perf_counter() - t_start}
        if setup_only:
            return record
        record["untraced"] = run_units(wl, seconds)
        # before tracing, whose spans would add to it
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            import tracer as tracing

            tr = tracing.Tracer()
            tracing.install(tr)
            try:
                traced = run_units(wl, seconds, tr)
            finally:
                tr.restore()
            metrics, counts, findings = _layer_report(wl, tr, traced, record["untraced"])
            findings += _check_counts(f"{name}-{size}-seed{seed}-{_code_digest()}", counts)
            metrics["trace.count_mismatches"] = len(findings)
            tr.dump(os.path.join(OUT, f"trace-{name}-{size}-seed{seed}.json"))
            record.update(traced=traced, layers=metrics, determinism=findings)
        record["env"] = _environment()
        return record
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                 args.setup_only, t_start)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
