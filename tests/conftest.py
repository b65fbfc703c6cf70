"""Shared fixtures: bundled scenarios and their (cached) simulation runs."""

import pytest

from slosim.runner import run
from slosim.scenario import parse_scenario

from helpers import bundled_doc

SCENARIO_NAMES = ("bursty", "mixed", "queue_driven")


@pytest.fixture(scope="session")
def scenarios():
    return {name: parse_scenario(bundled_doc(name))
            for name in SCENARIO_NAMES}


@pytest.fixture(scope="session")
def all_runs(scenarios):
    """One finished RunTrace per (scenario, controller) pair."""
    runs = {}
    for name, scn in scenarios.items():
        for kind in scn.controllers:
            runs[(name, kind)] = run(scn, kind)
    return runs
