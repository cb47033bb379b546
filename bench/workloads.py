"""The benchmark's workloads: the rows each one runs, and the checks applied
to the rows' output once the timed passes are over.

A row is an ``esrsel.cli.RowSpec``; its output is the list of CSV fields
that ``esrsel.cli.compute_row`` renders.  Checks compare the outputs with
computations made apart from the closed forms (the quadrature oracle, the
benchmark's own sampler in ``sampler.py``) or with properties the method
must have.  No check compares with stored values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from esrsel.channel_model import SystemConfig
from esrsel.cli import RowSpec, compute_row, figure_preset
from esrsel.simulation import _quadrature_esr_ratio_form, quadrature_esr

from sampler import sample_esr

SIGMAS = 6.0  # σ-multiple for every Monte Carlo comparison
IDENTITY_RTOL = 1e-10  # closed forms that must agree, after 12-digit CSV rendering
VALUE, STDERR = 11, 12  # positions of esr_bpcu and stderr in the CSV row


def oracle_tol(oracle: float) -> float:
    """Agreement tolerance between a closed form and quadrature (as in ``validate``)."""
    return max(1e-6 * abs(oracle), 1e-8)


def _lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _cfg(row: RowSpec) -> SystemConfig:
    return SystemConfig(row.k, row.l, row.m_d, row.m_e, _lin(row.lambda_d_db), _lin(row.lambda_e_db))


class Checks:
    """Check results for one workload: which rows failed, and one summary
    line per kind of comparison."""

    def __init__(self, rows: Sequence[RowSpec], outs: Sequence[Optional[List[str]]], sampler_seed: int):
        self.rows = rows
        self.outs = outs
        self.index = {row: i for i, row in enumerate(rows)}
        self.rng = np.random.default_rng(sampler_seed)
        self.failed: Set[int] = set()
        self.lines: List[str] = []
        self._tally: Dict[str, List[int]] = {}

    def ok_rows(self):
        """(index, row) for every row that produced output."""
        return [(i, r) for i, r in enumerate(self.rows) if self.outs[i] is not None]

    def find(self, row: RowSpec, **changes) -> Optional[int]:
        i = self.index.get(replace(row, **changes))
        return None if i is None or self.outs[i] is None else i

    def value(self, i: int) -> float:
        return float(self.outs[i][VALUE])

    def stderr(self, i: int) -> float:
        return float(self.outs[i][STDERR])

    def expect(self, kind: str, ok: bool, rows: Sequence[int], detail: str) -> None:
        tally = self._tally.setdefault(kind, [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            self.failed.update(rows)
            self.lines.append(f"FAIL {kind}: {detail}")

    def summary(self) -> List[str]:
        return [f"CHECK {kind}: {n - bad}/{n} pass" for kind, (n, bad) in self._tally.items()] + self.lines

    # -- comparisons shared by several workloads

    def against_quadrature(self, i: int) -> None:
        """Exact rows against ``quadrature_esr``, high-SNR rows against the
        ratio-form quadrature."""
        row = self.rows[i]
        oracle_fn = quadrature_esr if row.method == "exact" else _quadrature_esr_ratio_form
        oracle = oracle_fn(_cfg(row), row.scheme.upper()).value
        got = self.value(i)
        self.expect(
            f"{row.method} vs quadrature (C1 tolerance)",
            abs(got - oracle) <= oracle_tol(oracle),
            [i],
            f"{row} closed={got:.12g} oracle={oracle:.12g}",
        )

    def against_sampler(self, idx: Sequence[int], trials: int) -> None:
        """Rows of one parameter point (any schemes; methods exact, highsnr or
        mc) against one run of the benchmark's sampler."""
        row = self.rows[idx[0]]
        ref = sample_esr(
            self.rng, row.k, row.l, row.m_d, row.m_e, _lin(row.lambda_d_db), _lin(row.lambda_e_db),
            trials, rho_d=row.rho_d, rho_e=row.rho_e,
        )
        for i in idx:
            r = self.rows[i]
            mean, se = ref[(r.scheme, "ratio" if r.method == "highsnr" else "exact")]
            if r.method == "mc":
                se = math.hypot(se, self.stderr(i))
            got = self.value(i)
            self.expect(
                f"{r.method} vs own sampler ({SIGMAS:g}σ)",
                abs(got - mean) <= SIGMAS * se,
                [i],
                f"{r} program={got:.8g} sampler={mean:.8g} σ={se:.3g}",
            )

    def os_at_least_ss(self, i: int, slack: float) -> None:
        row = self.rows[i]
        j = self.find(row, scheme="os") if row.scheme == "ss" else None
        if j is not None:
            self.expect(
                f"OS >= SS ({row.method})",
                self.value(j) >= self.value(i) - slack * abs(self.value(i)),
                [i, j],
                f"{row} os={self.value(j):.12g} ss={self.value(i):.12g}",
            )


@dataclass(frozen=True)
class Workload:
    name: str
    rows: Callable[[int, bool], List[RowSpec]]  # (mc seed, fast) -> rows
    check: Callable[[Checks, bool], None]  # (checks, fast)


# ---------------------------------------------------------------------------
# fig2_sweep


def _fig2_rows(seed: int, fast: bool) -> List[RowSpec]:
    def keep(r: RowSpec) -> bool:
        if fast:
            return (r.k, r.l) in ((1, 1), (3, 1)) and r.lambda_d_db in (0.0, 20.0)
        return (r.k, r.l) != (3, 3) or r.lambda_d_db == 20.0

    return [r for r in figure_preset("fig2", seed=seed) if keep(r)]


def _check_fig2(ck: Checks, fast: bool) -> None:
    points: Dict[tuple, List[int]] = {}
    series: Dict[tuple, List[int]] = {}
    for i, row in ck.ok_rows():
        v = ck.value(i)
        points.setdefault((row.k, row.l, row.lambda_d_db), []).append(i)
        ck.os_at_least_ss(i, IDENTITY_RTOL)
        if row.method == "exact":
            series.setdefault((row.k, row.l, row.scheme), []).append(i)
        else:
            j = ck.find(row, method="exact")
            if j is not None:
                ck.expect("high-SNR >= exact", v >= ck.value(j), [i, j], f"{row} highsnr={v:.12g} exact={ck.value(j):.12g}")
        if row.scheme == "ss":
            twin = replace(row, scheme="os", k=1, l=row.k * row.l)
            j = ck.find(twin)
            w = ck.value(j) if j is not None else float(compute_row(twin)[VALUE])
            ck.expect(
                "SS(K,L) = OS(1,K*L)",
                abs(v - w) <= IDENTITY_RTOL * abs(w),
                [i] if j is None else [i, j],
                f"{row} ss={v:.12g} os(1,{row.k * row.l})={w:.12g}",
            )
        if row.lambda_d_db == 20.0:
            ck.against_quadrature(i)
    for idx in series.values():
        idx.sort(key=lambda i: ck.rows[i].lambda_d_db)
        for a, b in zip(idx, idx[1:]):
            ck.expect(
                "exact non-decreasing in lambda_D",
                ck.value(b) >= ck.value(a),
                [a, b],
                f"{ck.rows[b]} {ck.value(a):.12g} -> {ck.value(b):.12g}",
            )
    for idx in points.values():
        ck.against_sampler(idx, 20_000 if fast else 50_000)


# ---------------------------------------------------------------------------
# oracle_grid: the ``esrsel validate --grid small`` set


def _oracle_rows(seed: int, fast: bool) -> List[RowSpec]:
    # The closed-form side of each pair is computed by the check: timing it
    # too would put half the rows in a cluster 10x cheaper than quadrature,
    # and the median row would sit on the gap between the two.
    vals = (1,) if fast else (1, 2)
    rows = []
    for k in vals:
        for l in vals:
            for m_d in vals:
                for m_e in vals:
                    for ld in (0.0, 10.0):
                        for le in (0.0,) if fast else (0.0, 9.0):
                            for scheme in ("os", "ss"):
                                rows.append(RowSpec(scheme, "quadrature", k, l, m_d, m_e, ld, le, 0.0, 0.0, 0.0, 100_000, seed))
    mc_at = (1, 1, 1, 1) if fast else (2, 2, 2, 2)
    for scheme in ("os", "ss"):
        rows.append(RowSpec(scheme, "mc", *mc_at, 10.0, 0.0, 0.0, 0.0, 0.0, 20_000 if fast else 200_000, seed))
    return rows


def _check_oracle(ck: Checks, fast: bool) -> None:
    for i, row in ck.ok_rows():
        closed = float(compute_row(replace(row, method="exact"))[VALUE])
        got = ck.value(i)
        if row.method == "quadrature":
            ck.expect("exact vs quadrature (validate tolerance)", abs(closed - got) <= oracle_tol(got), [i], f"{row} closed={closed:.12g} oracle={got:.12g}")
        else:
            se = ck.stderr(i)
            ck.expect("mc vs exact (validate's 6σ)", abs(got - closed) <= 6.0 * se, [i], f"{row} closed={closed:.8g} mc={got:.8g} σ={se:.3g}")


# ---------------------------------------------------------------------------
# fig5_mc


def _fig5_rows(seed: int, fast: bool) -> List[RowSpec]:
    kept = (10.0,) if fast else (20.0,)
    return [r for r in figure_preset("fig5", trials=20_000 if fast else 100_000, seed=seed) if r.lambda_d_db in kept]


def _check_fig5(ck: Checks, fast: bool) -> None:
    for i, row in ck.ok_rows():
        ck.os_at_least_ss(i, 0.0)  # both rows share every draw, so no slack
        if row.scheme == "os" and row.rho_s == 0.0:
            idx = [i] + [j for j in [ck.find(row, scheme="ss")] if j is not None]
            ck.against_sampler(idx, 2 * row.trials)
    last = len(ck.rows) - 1
    if ck.outs[last] is not None:
        again = compute_row(ck.rows[last])
        ck.expect("rerun with the same seed is identical", again == ck.outs[last], [last], f"{ck.rows[last]} {ck.outs[last][VALUE]} then {again[VALUE]}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2_sweep", _fig2_rows, _check_fig2),
        Workload("oracle_grid", _oracle_rows, _check_oracle),
        Workload("fig5_mc", _fig5_rows, _check_fig5),
    )
}
