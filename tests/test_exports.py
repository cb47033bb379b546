"""The package's public names are exactly what its modules export, and the
internal names the benchmark's tracer wraps are still there."""

import ast
import importlib
import runpy
import types
from pathlib import Path

import pytest

import esrsel
from esrsel import channel_model, errors, esr_engine, simulation

MODULES = (channel_model, errors, esr_engine, simulation)
# Test references since the Monte Carlo sampler draws link SNRs from their
# laws (``tests/tap_reference.py``).
REMOVED = ("ChannelRealization", "ToeplitzCorrelation", "draw_channels", "select_os", "select_ss")
# Scalar copies of the Gamma link laws and the secrecy rate; ``simulation``
# states both in vectorised form where they run.
SCALAR_MODEL = ("GammaSnrDist", "snr_pdf", "snr_cdf", "secrecy_rate")


def test_public_names_are_the_union_of_module_exports():
    public = {
        name for name, value in vars(esrsel).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    for name in module.__all__:
        assert getattr(module, name) is getattr(esrsel, name)


@pytest.mark.parametrize("name", REMOVED)
def test_tap_level_model_is_not_in_the_library(name):
    assert not hasattr(esrsel, name)
    assert not hasattr(simulation, name)


@pytest.mark.parametrize("name", SCALAR_MODEL)
def test_scalar_link_laws_are_not_in_the_library(name):
    assert not hasattr(esrsel, name)
    assert not hasattr(channel_model, name)


def test_tracer_boundaries_resolve():
    # ``bench/tracer.py`` wraps these (module, attribute) pairs by name; some
    # are imported into their module only so that it can.
    tracer = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
    missing = [
        (module, attr) for module, attr, _, _ in tracer["BOUNDARIES"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracer["BOUNDARIES"] and not missing


# The closed forms and what they import: no numpy, no scipy.
CLOSED_FORM = ("channel_model", "errors", "esr_engine", "partial_fractions")


@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_modules_import_no_numpy_or_scipy(name):
    # Parsed, not imported: every import statement, at any depth, names
    # neither package, and a relative one stays inside this set, so the
    # modules it reaches are checked too.
    path = Path(esrsel.__file__).with_name(f"{name}.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [node.module]
        elif isinstance(node, ast.ImportFrom):
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            assert set(targets) <= set(CLOSED_FORM), (name, targets)
            continue
        else:
            continue
        assert not {t.split(".")[0] for t in targets} & {"numpy", "scipy"}, (name, targets)
