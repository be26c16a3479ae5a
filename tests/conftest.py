"""Shared pytest configuration.

The ``ci`` hypothesis profile (``--hypothesis-profile=ci``) draws a fixed
example sequence and drops the per-example deadline, so property tests
neither flake nor time out on a slow runner.
"""

import pytest
from hypothesis import settings

from loopcells import observables, spectral

settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(autouse=True)
def fresh_open_solves(monkeypatch) -> None:
    """Empty stores of solved open chains and their cells for each test, so no test reads another's."""
    monkeypatch.setattr(observables, "_OPEN_SOLVES", {})
    monkeypatch.setattr(observables, "_OPEN_CELLS", {})


@pytest.fixture(autouse=True)
def fresh_boundary_stores(monkeypatch) -> None:
    """Empty stores of Ising log-overlaps and loop moments for each test, as for the open chains."""
    monkeypatch.setattr(observables, "_ISING_OVERLAPS", {})
    monkeypatch.setattr(observables, "_LOOP_MOMENTS", {})


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
