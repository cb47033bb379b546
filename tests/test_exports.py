"""The package's public names are exactly what its modules export."""

import types

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
