"""Shared fixtures: the five packaged canonical configurations.

Session scope is safe — the objects only memoize append-only caches and the
test run is single-threaded.
"""

import pytest
from hypothesis import settings

from juliaspec.canonical import CANONICAL_NAMES, all_canonical

# Property tests replay the same examples on every run and keep no example database.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def canon():
    """name -> RunConfig for every canonical configuration."""
    return all_canonical()


@pytest.fixture(scope="session")
def chains(canon):
    """name -> ChainConfig."""
    return {name: canon[name].chain() for name in CANONICAL_NAMES}


@pytest.fixture(scope="session")
def systems(canon):
    """name -> FiberedSystem."""
    return {name: canon[name].system() for name in CANONICAL_NAMES}
