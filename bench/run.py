"""Benchmark of esrsel: one workload per run, rows through ``esrsel.cli.compute_row``.

    python3 bench/run.py --workload fig2_sweep --seed 1 --seconds 32 --trace 0

Each run sets up (imports esrsel, builds the rows), then repeats whole passes
over the rows while another pass still fits in ``--seconds`` (at least one
pass), in one process with one BLAS thread.  Each pass runs the rows in its own
fixed shuffled order.  The outputs of the first pass are then checked
(``workloads.py``).  With ``--trace 1`` one more pass runs with layer-boundary
wrappers installed (``tracer.py``) and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, CSV
output and spans are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_THREADS = 1
SETUP_PROBES = 5
WORKLOAD_NAMES = ("fig2_sweep", "oracle_grid", "fig5_mc")


def _import_program():
    """Import esrsel from this checkout's ``src/``, never from elsewhere."""
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import esrsel.cli

    if Path(esrsel.__file__).resolve().parent != ROOT / "src" / "esrsel":
        raise SystemExit(f"esrsel imported from {esrsel.__file__}, not from {ROOT / 'src'}")
    return esrsel.cli


def _blas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": _blas_threads(),
    }


def _setup_seconds(argv) -> float:
    """Wall time from starting a fresh process until its rows are built."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), *argv, "--probe-setup"], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def pass_order(n: int, pass_index: int) -> list:
    """Order in which a pass runs its ``n`` rows: a shuffle fixed by the pass
    index alone.  Rows of one cost are listed together in a workload, so in
    list order the rows that set a latency percentile would all run within a
    second or two, and a slow spell of a shared machine would move that
    percentile alone; shuffled, they spread over the whole pass."""
    order = list(range(n))
    random.Random(pass_index).shuffle(order)
    return order


def _one_pass(cli, rows, order=None, tracer=None):
    """Run every row once, in ``order`` (default: list order); returns
    (outputs, per-row seconds, errors), indexed as ``rows``.  A row that
    raises has output None."""
    outs, times, errors = [None] * len(rows), [0.0] * len(rows), {}
    for i in range(len(rows)) if order is None else order:
        if tracer is not None:
            tracer.row = i
        t0 = time.perf_counter()
        try:
            outs[i] = cli.compute_row(rows[i])
        except Exception as exc:  # a row that raises is a failed operation; the pass goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
        times[i] = time.perf_counter() - t0
    return outs, times, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, sampler_seed: int, fast: bool = False) -> dict:
    """Run, check and measure one workload in this process; returns the result object."""
    cli = _import_program()
    import workloads
    from tracer import PER_LAYER_UNITS, Tracer

    workload = workloads.WORKLOADS[name]
    rows = workload.rows(seed, fast)

    pass_s, row_s, failed = [], [], set()
    first = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs, times, errors = _one_pass(cli, rows, pass_order(len(rows), len(pass_s)))
        pass_s.append(time.perf_counter() - t0)
        row_s += times
        failed.update(errors)
        for i, err in errors.items():
            print(f"ERROR {rows[i]}: {err}")
        if first is None:
            first = outs
        failed.update(i for i, (a, b) in enumerate(zip(first, outs)) if a != b)
        if time.perf_counter() - start + pass_s[-1] > seconds:  # the next pass would not end in time
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(pass_s)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outs, _, errors = _one_pass(cli, rows, tracer=tracer)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        # An untraced pass right after, so that both sides of the overhead run warm.
        t0 = time.perf_counter()
        again, _, errors_again = _one_pass(cli, rows)
        untraced_s = time.perf_counter() - t0
        passes += 2
        for o, e in ((outs, errors), (again, errors_again)):
            failed.update(e)
            failed.update(i for i, (a, b) in enumerate(zip(first, o)) if a != b)

    t0 = time.perf_counter()
    checks = workloads.Checks(rows, first, sampler_seed)
    workload.check(checks, fast)
    failed |= checks.failed
    for line in checks.summary():
        print(line)
    print(f"CHECKS took {time.perf_counter() - t0:.2f} s")

    probe_argv = ["--workload", name, "--seed", str(seed), "--seconds", "0"] + (["--fast"] if fast else [])
    setup_s = statistics.median(_setup_seconds(probe_argv) for _ in range(SETUP_PROBES))

    if tracer is not None:
        overhead = traced_s - untraced_s
        print(f"TRACE overhead_s={overhead:.4f} traced run_s={traced_s:.4f} untraced run_s={untraced_s:.4f}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k][0]} for k, v in tracer.metrics(overhead).items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(pass_s), "unit": "s"},
            "row_p50_ms": {"value": statistics.median(row_s) * 1e3, "unit": "ms"},
            "row_p90_ms": {"value": statistics.quantiles(row_s, n=10)[8] * 1e3, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}{'-trace' if trace else ''}"
    with open(f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cli.CSV_HEADER.split(","))
        writer.writerows(out for out in first if out is not None)
    if tracer is not None:
        tracer.write_spans(f"{stem}.spans.jsonl")
    result = {
        "correct": not failed,
        "attempted": passes * len(rows),
        "failed": passes * len(failed),
        "metrics": metrics,
    }
    Path(f"{stem}.json").write_text(
        json.dumps({**result, "workload": name, "seed": seed, "sampler_seed": sampler_seed, "rows": len(rows),
                    "passes": passes, "pass_s": pass_s, "machine": machine_facts()}, indent=1) + "\n",
        encoding="utf-8",
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="Monte Carlo seed of the program's rows")
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes while another one fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sampler-seed", type=int, default=None, help="seed of the benchmark's own sampler (default: --seed)")
    parser.add_argument("--fast", action="store_true", help="small rows of the same shape, for the benchmark's tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        _import_program()
        import workloads

        workloads.WORKLOADS[args.workload].rows(args.seed, args.fast)
        print("ready", flush=True)
        return 0

    _import_program()
    print("MACHINE " + json.dumps(machine_facts()), flush=True)
    sampler_seed = args.seed if args.sampler_seed is None else args.sampler_seed
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sampler_seed, args.fast)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # numpy reads the BLAS thread count when it is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
