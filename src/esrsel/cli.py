"""Command-line surface: single evaluations, sweeps, figure presets, and a
self-contained validation harness.  All numeric output is CSV.

λ values cross this boundary in dB and are converted to linear scale before
touching the library (λ_E = 9 dB means 10^0.9 ≈ 7.943).  Correlation is only
meaningful to the Monte Carlo method; requesting any closed-form or
quadrature method with a nonzero ρ is a usage error.

Arguments take one path to rows.  argparse states every flag's default, type
and choices once; ``--config FILE`` turns its ``key = value`` lines into
``--key=value`` arguments placed right after the subcommand, so they pass
the same checks and flags on the command line win.  ``esr`` is the sweep of
a single point.  Every subcommand builds its rows with ``_expand``,
``_inputs`` turns a row into the library's configs and ``_evaluate``
dispatches it.  Every row a command builds is checked by those configs and
the library's trials and seed checks, and an unwritable ``--out`` refused,
before any row runs.  Usage errors exit 2 with the library's message,
library errors (``SelectionModelError``) exit 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .channel_model import CorrelationConfig, SystemConfig
from .errors import DomainError, SelectionModelError
from .esr_engine import (
    esr_asymptotic,
    esr_os_exact,
    esr_os_highsnr,
    esr_ss_exact,
    esr_ss_highsnr,
)
from .simulation import (
    _checked_seed,
    _checked_trials,
    _share_cores,
    _usable_cores,
    estimate_esr,
    quadrature_esr,
)

CSV_HEADER = (
    "scheme,method,K,L,M_D,M_E,lambda_d_db,lambda_e_db,rho_s,rho_d,rho_e,"
    "esr_bpcu,stderr,term_count,max_log_term,trials,seed"
)

_SWEEP_VARS = (
    "lambda_d_db",
    "lambda_e_db",
    "m_d",
    "m_e",
    "k",
    "l",
    "rho_s",
    "rho_d",
    "rho_e",
)
_INT_VARS = {"m_d", "m_e", "k", "l"}
# Flags whose value may be a negative float.  argparse before Python 3.13
# takes a negative number in exponent notation ("-1e1") for an option.
_SIGNED_FLAGS = ("--lambda-d-db", "--lambda-e-db", "--from", "--to")
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# Most values one ``sweep`` may take; each expands to one row per scheme and
# method.
MAX_SWEEP_POINTS = 10_000
_METHODS = ("exact", "highsnr", "asymptotic", "quadrature", "mc")

@dataclass(frozen=True)
class RowSpec:
    """One CSV row to compute: a scheme/method at a full parameter point."""

    scheme: str  # "os" | "ss"
    method: str  # one of _METHODS
    k: int
    l: int
    m_d: int
    m_e: int
    lambda_d_db: float
    lambda_e_db: float
    rho_s: float
    rho_d: float
    rho_e: float
    trials: int
    seed: int


def _db_to_linear(db: float) -> float:
    """10^(dB/10), or ``inf`` where that overflows; ``SystemConfig`` refuses
    ``inf`` as it refuses ``0.0`` and ``nan``."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _fmt(value, spec: str = "%.12g") -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return spec % value


def _inputs(row: RowSpec) -> Tuple[SystemConfig, CorrelationConfig]:
    """The library's inputs for ``row``; their constructors check every value."""
    cfg = SystemConfig(row.k, row.l, row.m_d, row.m_e,
                       _db_to_linear(row.lambda_d_db), _db_to_linear(row.lambda_e_db))
    return cfg, CorrelationConfig(row.rho_s, row.rho_d, row.rho_e)


def _evaluate(row: RowSpec):
    """The library's result for ``row``: ``McEstimate`` for ``mc``,
    ``EsrResult`` for every other method."""
    cfg, corr = _inputs(row)
    scheme = row.scheme.upper()
    if row.method == "exact":
        return esr_os_exact(cfg) if scheme == "OS" else esr_ss_exact(cfg)
    if row.method == "highsnr":
        return esr_os_highsnr(cfg) if scheme == "OS" else esr_ss_highsnr(cfg)
    if row.method == "asymptotic":
        return esr_asymptotic(cfg, scheme)
    if row.method == "quadrature":
        return quadrature_esr(cfg, scheme)
    if row.method == "mc":
        return estimate_esr(cfg, corr, scheme, row.trials, row.seed)
    raise SelectionModelError(f"unknown method {row.method!r}")


def compute_row(row: RowSpec) -> List[str]:
    """Evaluate one RowSpec and render the CSV fields (shared by workers)."""
    res = _evaluate(row)
    if row.method == "mc":
        value, stderr, trials, seed = res.mean, res.stderr, res.trials, res.seed
        term_count = max_log_term = None
    else:
        value, term_count, max_log_term = res.value, res.term_count, res.max_log_term
        stderr = trials = seed = None
    return [
        row.scheme,
        row.method,
        str(row.k),
        str(row.l),
        str(row.m_d),
        str(row.m_e),
        _fmt(row.lambda_d_db, "%g"),
        _fmt(row.lambda_e_db, "%g"),
        _fmt(row.rho_s, "%g"),
        _fmt(row.rho_d, "%g"),
        _fmt(row.rho_e, "%g"),
        _fmt(value),
        _fmt(stderr, "%.6g"),
        _fmt(term_count),
        _fmt(max_log_term, "%.6g"),
        _fmt(trials),
        _fmt(seed),
    ]


def _expand(points: Sequence[RowSpec], schemes: Sequence[str],
            methods: Sequence[str]) -> List[RowSpec]:
    """One row per scheme and method at each point, methods innermost."""
    return [replace(p, scheme=s, method=m) for p in points for s in schemes for m in methods]


# ---------------------------------------------------------------------------
# argument plumbing


def _jobs(text: str) -> int:
    """A ``--jobs`` value: a positive worker count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """Join each signed flag to a negative value that follows it
    ("--from", "-1e1" → "--from=-1e1"), so argparse reads it as the value."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and _NEGATIVE_NUMBER.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=["os", "ss", "both"], default="both")
    p.add_argument(
        "--method",
        choices=list(_METHODS) + ["all"],
        default="exact",
        help="evaluation route; 'all' expands to every method",
    )
    p.add_argument("--k", type=int, default=1, help="number of transmitters K")
    p.add_argument("--l", type=int, default=1, help="number of destinations L")
    p.add_argument("--md", type=int, default=1, help="destination paths M_D")
    p.add_argument("--me", type=int, default=1, help="eavesdropper paths M_E")
    p.add_argument(
        "--lambda-d-db",
        type=float,
        default=10.0,
        help="destination per-path SNR in dB (10^(dB/10) linear inside)",
    )
    p.add_argument(
        "--lambda-e-db",
        type=float,
        default=0.0,
        help="eavesdropper per-path SNR in dB (9 dB = 7.943 linear)",
    )
    p.add_argument("--rho-s", type=float, default=0.0,
                   help="transmitter correlation (mc only)")
    p.add_argument("--rho-d", type=float, default=0.0,
                   help="destination path correlation (mc only)")
    p.add_argument("--rho-e", type=float, default=0.0,
                   help="eavesdropper path correlation (mc only)")
    _add_run_flags(p)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every row-emitting subcommand, ``figure`` included."""
    p.add_argument("--trials", type=int, default=100_000, help="mc trial count")
    p.add_argument("--seed", type=int, default=12345, help="mc seed (64-bit)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; flags override")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for multi-row runs (at least 1)")


def _config_args(path: str, parser: argparse.ArgumentParser, keys: Set[str]) -> List[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` arguments
    of ``parser``.  ``keys`` holds every config key; a line whose flag
    ``parser`` lacks is skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    out: List[str] = []
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            parser.error(f"{path}:{ln}: unknown key {key!r}")
        flag = "--" + key.replace("_", "-")
        if flag in parser._option_string_actions:
            out.append(f"{flag}={value.strip()}")
    return out


def _validate_row(row: RowSpec, parser: argparse.ArgumentParser) -> None:
    """Refuse ``row`` as a usage error by the library's checks (trials and seed
    on every row) and by the CLI's own rule: ρ ≠ 0 only with ``mc``."""
    try:
        _inputs(row)
        _checked_trials(row.trials)
        _checked_seed(row.seed)
    except DomainError as exc:
        parser.error(str(exc))
    if row.method != "mc" and (row.rho_s or row.rho_d or row.rho_e):
        parser.error(
            "correlation (ρ ≠ 0) is only supported by --method mc; "
            "closed forms and quadrature assume i.i.d. channels"
        )


def _sweep_values(
    var: str, start: float, stop: float, step: float, parser: argparse.ArgumentParser
) -> List[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        parser.error("--from, --to and --step must be finite")
    if stop < start:
        parser.error("--from must not exceed --to")
    if step <= 0:
        parser.error("--step must be positive")
    span = (stop - start) / step  # may overflow to inf; no list is built before the cap
    count = int(math.floor(span + 1e-9)) + 1 if span < MAX_SWEEP_POINTS else math.inf
    if count > MAX_SWEEP_POINTS:
        parser.error(f"a sweep takes at most {MAX_SWEEP_POINTS} values, this one {span + 1:.4g}")
    values = [start + i * step for i in range(count)]
    if var in _INT_VARS:
        for v in values:
            if abs(v - round(v)) > 1e-9:
                parser.error(f"sweep of {var} requires integer values, got {v}")
        return [int(round(v)) for v in values]
    return values


def _pool_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, in worker processes when ``jobs`` > 1.

    The pool never has more workers than usable CPUs or items: under the
    ``fork`` start method a pool starts all of its workers at once.  Each
    worker's Monte Carlo chunk threads take its share of the usable CPUs,
    at least one.
    """
    workers = min(jobs, _usable_cores(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers, initializer=_share_cores, initargs=(workers,)) as pool:
        return list(pool.map(fn, items))


def _emit(rows: Sequence[RowSpec], args: argparse.Namespace) -> int:
    """Compute ``rows`` and write them as CSV.  Every row and the ``--out``
    path are checked before any row runs; the file is opened for writing
    only after every row has succeeded, so a failing row leaves it as it was."""
    for row in rows:
        _validate_row(row, args.parser)
    created = bool(args.out) and not os.path.lexists(args.out)
    if args.out:
        try:
            open(args.out, "a", encoding="utf-8").close()  # neither truncates nor writes
        except OSError as exc:
            args.parser.exit(2, f"{args.parser.prog}: error: cannot write {args.out}: {exc.strerror}\n")
    try:
        rendered = _pool_map(compute_row, rows, args.jobs)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    fh = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(rendered)
    finally:
        if args.out:
            fh.close()
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rows(args: argparse.Namespace) -> int:
    """``esr`` and ``sweep``: one row per scheme and method at each point.
    ``esr`` is the sweep of a single point."""
    point = RowSpec("os", "exact", args.k, args.l, args.md, args.me, args.lambda_d_db,
                    args.lambda_e_db, args.rho_s, args.rho_d, args.rho_e, args.trials, args.seed)
    points = [point]
    if args.command == "sweep":
        if None in (args.var, args.start, args.stop, args.step):
            args.parser.error("sweep requires --var, --from, --to, --step")
        values = _sweep_values(args.var, args.start, args.stop, args.step, args.parser)
        points = [replace(point, **{args.var: v}) for v in values]
    schemes = ["os", "ss"] if args.scheme == "both" else [args.scheme]
    methods = list(_METHODS) if args.method == "all" else [args.method]
    return _emit(_expand(points, schemes, methods), args)


_FIG5_RHO_SETS = (
    (0.0, 0.0, 0.0),
    (0.9, 0.0, 0.0),
    (0.0, 0.9, 0.0),
    (0.9, 0.9, 0.0),
    (0.0, 0.0, 0.9),
    (0.9, 0.0, 0.9),
)


def figure_preset(name: str, trials: int = 100_000, seed: int = 12345) -> List[RowSpec]:
    """Parameter rows reproducing the reference performance figures."""

    def point(k, l, m_d, m_e, ld_db, le_db, rho=(0.0, 0.0, 0.0)) -> RowSpec:
        return RowSpec("os", "exact", k, l, m_d, m_e, ld_db, le_db, *rho, trials, seed)

    lam_sweep = [float(v) for v in range(0, 41, 2)]
    if name == "fig2":
        points = [point(k, l, 3, 3, v, 9.0)
                  for k, l in ((1, 1), (1, 3), (3, 1), (3, 3)) for v in lam_sweep]
        methods: Tuple[str, ...] = ("exact", "highsnr")
    elif name == "fig3":
        points = [point(kl, kl, m, m, v, 9.0) for kl in (1, 2) for m in (1, 2) for v in lam_sweep]
        methods = ("highsnr", "asymptotic")
    elif name == "fig4":
        points = [point(2, 2, m_d, m_e, 20.0, 0.0) for m_e in (1, 2, 3) for m_d in range(1, 7)]
        methods = ("exact",)
    elif name == "fig5":
        points = [point(4, 4, 4, 4, float(v), 9.0, rho)
                  for rho in _FIG5_RHO_SETS for v in range(0, 21, 2)]
        methods = ("mc",)
    else:
        raise SelectionModelError(f"unknown figure preset {name!r}")
    return _expand(points, ("os", "ss"), methods)


def _cmd_figure(args: argparse.Namespace) -> int:
    return _emit(figure_preset(args.name, trials=args.trials, seed=args.seed), args)


def _validate_one(row: RowSpec) -> Tuple[str, bool]:
    """An ``exact`` row against the quadrature oracle at its point."""
    closed = _evaluate(row)
    oracle = _evaluate(replace(row, method="quadrature"))
    err = abs(closed.value - oracle.value)
    tol = max(1e-6 * abs(oracle.value), 1e-8)
    ok = err <= tol
    line = (
        f"{'PASS' if ok else 'FAIL'} scheme={row.scheme} K={row.k} L={row.l} M_D={row.m_d} "
        f"M_E={row.m_e} lambda_d_db={row.lambda_d_db:g} lambda_e_db={row.lambda_e_db:g} "
        f"closed={closed.value:.10g} oracle={oracle.value:.10g} abs_err={err:.3e}"
    )
    return line, ok


def _cmd_validate(args: argparse.Namespace) -> int:
    # The Monte Carlo spot check's point, and the template of the grid's rows.
    spot = RowSpec("os", "mc", 2, 2, 2, 2, 10.0, 0.0, 0.0, 0.0, 0.0, 200_000, 20240501)
    if args.grid == "small":
        kl_vals, m_vals, ld_vals, le_vals = (1, 2), (1, 2), (0.0, 10.0), (0.0, 9.0)
    else:
        kl_vals, m_vals, ld_vals, le_vals = (1, 2, 3), (1, 2, 3), (0.0, 10.0, 20.0), (0.0, 9.0)
    points = [
        replace(spot, k=k, l=l, m_d=m_d, m_e=m_e, lambda_d_db=ld, lambda_e_db=le)
        for k in kl_vals
        for l in kl_vals
        for m_d in m_vals
        for m_e in m_vals
        for ld in ld_vals
        for le in le_vals
    ]
    results = _pool_map(_validate_one, _expand(points, ("os", "ss"), ("exact",)), args.jobs)
    failures = 0
    for line, ok in results:
        print(line)
        failures += 0 if ok else 1
    # one Monte Carlo concordance spot check ties all three routes together
    for row in _expand([spot], ("os", "ss"), ("mc",)):
        closed = _evaluate(replace(row, method="exact"))
        est = _evaluate(row)
        ok = abs(est.mean - closed.value) <= 6.0 * est.stderr
        print(
            f"{'PASS' if ok else 'FAIL'} scheme={row.scheme} mc_vs_closed "
            f"closed={closed.value:.8g} mc={est.mean:.8g} stderr={est.stderr:.3g}"
        )
        failures += 0 if ok else 1
    total = len(results) + 2
    print(f"SUMMARY pass={total - failures} fail={failures} total={total}")
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="esrsel",
        description=(
            "Ergodic secrecy rate of optimal/sub-optimal source-destination "
            "pair selection over frequency-selective fading. Emits CSV."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_esr = sub.add_parser("esr", help="evaluate a single parameter point")
    _add_point_flags(p_esr)

    p_sweep = sub.add_parser("sweep", help="sweep one variable, CSV per point")
    _add_point_flags(p_sweep)
    p_sweep.add_argument("--var", choices=_SWEEP_VARS, default=None)
    p_sweep.add_argument("--from", dest="start", type=float, default=None)
    p_sweep.add_argument("--to", dest="stop", type=float, default=None)
    p_sweep.add_argument("--step", dest="step", type=float, default=None)

    p_fig = sub.add_parser("figure", help="emit data for a reference figure")
    p_fig.add_argument("name", choices=["fig2", "fig3", "fig4", "fig5"])
    _add_run_flags(p_fig)

    p_val = sub.add_parser("validate", help="closed forms vs quadrature vs mc")
    p_val.add_argument("--grid", choices=["small", "full"], default="small")
    p_val.add_argument("--jobs", type=_jobs, default=1,
                       help="worker processes for multi-row runs (at least 1)")

    for p, run in ((p_esr, _cmd_rows), (p_sweep, _cmd_rows), (p_fig, _cmd_figure),
                   (p_val, _cmd_validate)):
        p.set_defaults(run=run, parser=p)

    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # File values go right after the subcommand, so flags given after
        # them on the command line win, and argparse checks both alike.
        keys = {opt[2:].replace("-", "_") for opt in p_sweep._option_string_actions
                if opt.startswith("--")} - {"config", "jobs", "help"}
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_args(args.config, args.parser, keys) + argv[at:])
    try:
        return args.run(args)
    except SelectionModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
