"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from nnml.formula import And, Atom, BOTTOM, Box, Imp, Or, TOP

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


atoms = st.sampled_from(["p", "q", "r", "s"]).map(Atom)
leaves = atoms | st.just(TOP) | st.just(BOTTOM)


def _extend(children):
    pairs = st.tuples(children, children)
    return (
        pairs.map(lambda ab: And(*ab))
        | pairs.map(lambda ab: Or(*ab))
        | pairs.map(lambda ab: Imp(*ab))
        | children.map(Box)
    )


formulas = st.recursive(leaves, _extend, max_leaves=25)

small_formulas = st.recursive(leaves, _extend, max_leaves=8)

rngs = st.integers(min_value=0, max_value=2**32 - 1).map(random.Random)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)
