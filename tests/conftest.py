import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))  # for the bruteforce helpers

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def realizations_built(monkeypatch):
    """The bitmask of every Realization constructed while the test runs."""
    from probust.graphs import Realization

    built = []
    check = Realization.__post_init__

    def counted(self):
        built.append(self.bits)
        check(self)

    monkeypatch.setattr(Realization, "__post_init__", counted)
    return built


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row count of every block-kernel call made while the test runs."""
    from probust import models

    calls = []
    decide = models._decide_block

    def counted(model, coins, *args):
        calls.append(len(coins))
        return decide(model, coins, *args)

    monkeypatch.setattr(models, "_decide_block", counted)
    return calls


@pytest.fixture
def set_work_unit(monkeypatch):
    """A function that makes every part the samplers yield ``unit`` rows;
    ``None`` keeps the kernel's own part size. It also reports three CPUs,
    so that three workers really fork."""
    from probust import coupling, models

    def set_unit(unit):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if unit is not None:
            for module in (models, coupling):
                monkeypatch.setattr(module, "_part_rows", lambda width: unit)

    return set_unit
