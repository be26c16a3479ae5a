"""Shared pytest configuration.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) draws a fixed
example sequence and drops the per-example deadline, so property tests
neither flake nor time out on a slow runner.
"""

import pytest
from hypothesis import settings

from loopcells import diagrams, spectral

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def fresh_stores() -> None:
    """Empty every per-process store of the package for each test, so no test reads another's.

    The stores are the functions that :func:`loopcells.diagrams._kept`
    wraps, listed in its registry: the bases and their per-basis maps, the
    boundary loop counts, the solved chains and their cells, the Ising
    log-overlaps and the loop moments.
    """
    for kept in diagrams._STORES:
        kept.store.clear()


@pytest.fixture
def factor_dtypes(monkeypatch) -> list:
    """The dtype of each matrix factored through ``spectral._factor`` during the test."""
    dtypes = []
    original = spectral._factor

    def recorded(M):
        dtypes.append(M.dtype)
        return original(M)

    monkeypatch.setattr(spectral, "_factor", recorded)
    return dtypes
