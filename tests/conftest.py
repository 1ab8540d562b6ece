"""Shared fixtures: small fingerprint corpora and trained identifiers.

Session-scoped so the expensive training work happens once per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DeviceIdentifier
from repro.devices import DEVICE_PROFILES, collect_dataset
from tests.oracles import record_forests

# A compact but representative slice of the catalogue: a few distinct
# types plus one full sibling group (the TP-Link plugs).
SMALL_PROFILE_NAMES = (
    "Aria",
    "HueBridge",
    "WeMoSwitch",
    "EdimaxCam",
    "TP-LinkPlugHS110",
    "TP-LinkPlugHS100",
)


@pytest.fixture(scope="session")
def small_registry():
    profiles = [p for p in DEVICE_PROFILES if p.identifier in SMALL_PROFILE_NAMES]
    return collect_dataset(profiles, runs_per_device=12, seed=101)


@pytest.fixture(autouse=True)
def _small_registry_unchanged(request):
    """Fail the test that enrols into or retires from the shared registry.

    ``small_registry`` is built once per session; a test that mutates it
    (e.g. by handing it to ``IoTSecurityService.train`` and then enrolling
    a type) changes what every later test trains on.  Such a test must
    train on a private copy instead.
    """
    if "small_registry" not in request.fixturenames:
        yield
        return
    registry = request.getfixturevalue("small_registry")
    labels = list(registry.labels)
    yield
    assert registry.labels == labels, (
        f"{request.node.nodeid} changed the session-scoped small_registry "
        f"labels {labels} -> {registry.labels}; train on a copy"
    )


@pytest.fixture(scope="session")
def _small_training(small_registry):
    with record_forests() as forests:
        identifier = DeviceIdentifier(random_state=11).fit(small_registry)
    return identifier, forests


@pytest.fixture(scope="session")
def small_identifier(_small_training):
    return _small_training[0]


@pytest.fixture(scope="session")
def small_forests(_small_training):
    """The forests ``small_identifier`` was trained with (the oracle)."""
    return _small_training[1]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
