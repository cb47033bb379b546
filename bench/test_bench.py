"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest bench/test_bench.py -q

They use ``--fast``: the same workloads on small grids.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_fast_mode_prints_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--fast"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def _run_mutated(workload, monkeypatch, attr, wrap, capsys):
    cli = run._import_program()
    monkeypatch.setattr(cli, attr, wrap(getattr(cli, attr)))
    result = run.run_workload(workload, seed=5, seconds=0, trace=False, sampler_seed=5, fast=True)
    return result, capsys.readouterr().out


def _scaled(fn):
    def scaled(*args, **kwargs):
        res = fn(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * (1 + 1e-4))

    return scaled


@pytest.mark.parametrize(
    "workload, fires",
    [
        ("fig2_sweep", ["exact vs quadrature", "SS(K,L) = OS(1,K*L)"]),
        ("oracle_grid", ["exact vs quadrature"]),
    ],
)
def test_scaled_os_exact_fails_the_checks(workload, fires, monkeypatch, capsys):
    result, out = _run_mutated(workload, monkeypatch, "esr_os_exact", _scaled, capsys)
    assert not result["correct"] and result["failed"] > 0
    for kind in fires:
        assert f"FAIL {kind}" in out


def test_mc_mean_shifted_by_ten_sigma_fails_fig5(monkeypatch, capsys):
    def shifted(fn):
        def shift(*args, **kwargs):
            est = fn(*args, **kwargs)
            return dataclasses.replace(est, mean=est.mean + 10 * est.stderr)

        return shift

    result, out = _run_mutated("fig5_mc", monkeypatch, "estimate_esr", shifted, capsys)
    assert not result["correct"] and result["failed"] > 0
    assert "FAIL mc vs own sampler" in out


def test_mc_that_does_not_repeat_fails_fig5(monkeypatch, capsys):
    calls = itertools.count()

    def drifting(fn):
        def drift(*args, **kwargs):
            est = fn(*args, **kwargs)
            return dataclasses.replace(est, mean=est.mean + 1e-9 * next(calls))

        return drift

    result, out = _run_mutated("fig5_mc", monkeypatch, "estimate_esr", drifting, capsys)
    assert not result["correct"]
    assert "FAIL rerun with the same seed is identical" in out
