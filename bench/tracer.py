"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module attributes through which one layer of
``esrsel`` calls the next with timing wrappers, and ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.  Each wrapper records a span
(name, layer, start, end, parent span, row); a layer's self time is the sum
of its spans' durations minus the parts covered by child spans.

``BOUNDARIES`` is the one place that names the wrapped functions: a rename in
``esrsel`` is a one-line change here.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import mpmath

# (module, attribute, layer, span name).  The wrapper replaces the attribute
# as the calling module sees it, so only calls that cross the boundary count.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("esrsel.cli", "compute_row", "cli", "cli.row"),
    ("esrsel.cli", "esr_os_exact", "esr_engine", "esr_engine.esr"),
    ("esrsel.cli", "esr_ss_exact", "esr_engine", "esr_engine.esr"),
    ("esrsel.cli", "esr_os_highsnr", "esr_engine", "esr_engine.esr"),
    ("esrsel.cli", "esr_ss_highsnr", "esr_engine", "esr_engine.esr"),
    ("esrsel.cli", "esr_asymptotic", "esr_engine", "esr_engine.esr"),
    ("esrsel.cli", "quadrature_esr", "simulation", "simulation.quadrature"),
    ("esrsel.cli", "estimate_esr", "simulation", "simulation.mc"),
    ("esrsel.esr_engine", "pf_coefficients", "partial_fractions", "partial_fractions.pf_coefficients"),
    ("esrsel.esr_engine", "single_pole_integral_mp", "partial_fractions", "partial_fractions.kernel"),
    ("esrsel.esr_engine", "j0_exact_mp", "partial_fractions", "partial_fractions.kernel"),
    ("esrsel.esr_engine", "j0_highsnr_mp", "partial_fractions", "partial_fractions.kernel"),
    ("esrsel.esr_engine", "j1_highsnr_mp", "partial_fractions", "partial_fractions.kernel"),
    ("esrsel.esr_engine", "_GammaTable", "partial_fractions", "partial_fractions.gamma_table"),
)
# mpmath functions whose calls are counted (not timed: they run inside
# partial_fractions spans and belong to that layer's time).
COUNTED = (("binomial", "partial_fractions.mp_binomial_calls"), ("e1", "partial_fractions.mp_e1_calls"))

LAYERS = ("cli", "esr_engine", "partial_fractions", "simulation")

PER_LAYER_UNITS: Dict[str, Tuple[str, str]] = {
    "cli.self_s": ("s", "lower"),
    "esr_engine.calls": ("count", "lower"),
    "esr_engine.self_s": ("s", "lower"),
    "esr_engine.terms": ("count", "lower"),
    "esr_engine.working_dps_max": ("digits", "lower"),
    "esr_engine.precision_retries": ("count", "lower"),
    "esr_engine.headroom_digits_min": ("digits", "higher"),
    "partial_fractions.self_s": ("s", "lower"),
    "partial_fractions.pf_coefficients.calls": ("count", "lower"),
    "partial_fractions.pf_coefficients.s": ("s", "lower"),
    "partial_fractions.kernel.calls": ("count", "lower"),
    "partial_fractions.kernel.s": ("s", "lower"),
    "partial_fractions.mp_binomial_calls": ("count", "lower"),
    "partial_fractions.mp_e1_calls": ("count", "lower"),
    "simulation.quadrature.calls": ("count", "lower"),
    "simulation.quadrature.s": ("s", "lower"),
    "simulation.quadrature.evals": ("count", "lower"),
    "simulation.quadrature.evals_per_s": ("1/s", "higher"),
    "simulation.mc.s": ("s", "lower"),
    "simulation.mc.trials_per_s.iid": ("1/s", "higher"),
    "simulation.mc.trials_per_s.path_corr": ("1/s", "higher"),
    "simulation.mc.trials_per_s.tx_corr": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

_LN10 = math.log(10.0)


def corr_class(corr) -> str:
    """Monte Carlo path a correlation setting takes: i.i.d., path-only, or
    transmitter-correlated."""
    if corr.rho_S > 0.0:
        return "tx_corr"
    return "path_corr" if corr.rho_D > 0.0 or corr.rho_E > 0.0 else "iid"


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, layer, start, end, parent, row]
        self.counts: Dict[str, int] = {name: 0 for _, name in COUNTED}
        self.row = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._dps_seen: Optional[set] = None  # mp.dps values at kernel calls of the open esr call
        self.esr: List[Tuple[int, int, Any]] = []  # (retries, final dps, EsrResult) per closed-form call
        self.dps_max = 0
        self.mc: List[Tuple[str, int, float]] = []  # (corr class, trials, seconds)
        self.quad_evals = 0

    # -- installation

    def install(self) -> None:
        for module_name, attr, layer, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrap(getattr(module, attr), layer, name))
        for attr, counter in COUNTED:
            self._patch(mpmath, attr, self._counter(getattr(mpmath, attr), counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _counter(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if name == "partial_fractions.kernel" and tracer._dps_seen is not None:
                tracer._dps_seen.add(mpmath.mp.dps)
            if name == "esr_engine.esr":
                tracer._dps_seen = set()
            span = [name, layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.row]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            tracer._record(name, span[3] - span[2], args, result)
            return result

        return traced

    def _record(self, name: str, seconds: float, args, result) -> None:
        if name == "esr_engine.esr":
            seen, self._dps_seen = self._dps_seen or set(), None
            self.dps_max = max([self.dps_max, *seen])
            self.esr.append((max(0, len(seen) - 1), max(seen, default=0), result))
        elif name == "simulation.quadrature":
            self.quad_evals += result.term_count
        elif name == "simulation.mc":
            _cfg, corr, _scheme, trials = args[:4]
            self.mc.append((corr_class(corr), trials, seconds))

    # -- results

    def self_times(self) -> Dict[str, float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        out = {layer: 0.0 for layer in LAYERS}
        for s, t in zip(self.spans, own):
            out[s[1]] += t
        return out

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        selfs = self.self_times()

        def total(name: str) -> Tuple[int, float]:
            spans = [s for s in self.spans if s[0] == name]
            return len(spans), sum(s[3] - s[2] for s in spans)

        headrooms = [
            dps - (res.max_log_term - math.log(abs(res.value))) / _LN10
            for _retries, dps, res in self.esr
            if res.value != 0.0 and math.isfinite(res.max_log_term)
        ]
        pf_calls, pf_s = total("partial_fractions.pf_coefficients")
        k_calls, k_s = total("partial_fractions.kernel")
        q_calls, q_s = total("simulation.quadrature")
        _, mc_s = total("simulation.mc")
        m = {
            "cli.self_s": selfs["cli"],
            "esr_engine.calls": len(self.esr),
            "esr_engine.self_s": selfs["esr_engine"],
            "esr_engine.terms": sum(res.term_count for _, _, res in self.esr),
            "esr_engine.working_dps_max": self.dps_max,
            "esr_engine.precision_retries": sum(r for r, _, _ in self.esr),
            "esr_engine.headroom_digits_min": min(headrooms, default=0.0),
            "partial_fractions.self_s": selfs["partial_fractions"],
            "partial_fractions.pf_coefficients.calls": pf_calls,
            "partial_fractions.pf_coefficients.s": pf_s,
            "partial_fractions.kernel.calls": k_calls,
            "partial_fractions.kernel.s": k_s,
            "partial_fractions.mp_binomial_calls": self.counts["partial_fractions.mp_binomial_calls"],
            "partial_fractions.mp_e1_calls": self.counts["partial_fractions.mp_e1_calls"],
            "simulation.quadrature.calls": q_calls,
            "simulation.quadrature.s": q_s,
            "simulation.quadrature.evals": self.quad_evals,
            "simulation.quadrature.evals_per_s": self.quad_evals / q_s if q_s > 0 else 0.0,
            "simulation.mc.s": mc_s,
            "trace.overhead_s": overhead_s,
        }
        for cls in ("iid", "path_corr", "tx_corr"):
            trials = sum(t for c, t, _ in self.mc if c == cls)
            secs = sum(s for c, _, s in self.mc if c == cls)
            m[f"simulation.mc.trials_per_s.{cls}"] = trials / secs if secs > 0 else 0.0
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, row) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer, "start": start, "end": end, "parent": parent, "row": row}) + "\n")
