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
def fresh_stores(monkeypatch) -> None:
    """Empty every per-process store of :mod:`loopcells.observables` for each test, so no test reads another's.

    A store is a module-level dict named in capitals: the solved chains and
    their cells, the Ising log-overlaps and the loop moments.
    """
    for name, value in vars(observables).items():
        if isinstance(value, dict) and name.lstrip("_").isupper():
            monkeypatch.setattr(observables, name, {})


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
