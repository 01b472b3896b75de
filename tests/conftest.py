import pytest

from scarfcs import kernels


@pytest.fixture
def jacobi_calls(monkeypatch):
    """The n_max of every kernels.jacobi_table call made during a test."""
    calls = []
    original = kernels.jacobi_table

    def counting(n_max, *args, **kwargs):
        calls.append(n_max)
        return original(n_max, *args, **kwargs)

    monkeypatch.setattr(kernels, "jacobi_table", counting)
    return calls
