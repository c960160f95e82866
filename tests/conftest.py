import pytest

from primeconv import counting


@pytest.fixture
def cutoff(monkeypatch):
    """cutoff(k) moves the sieve cutoff, a constant of Config, to k for the
    rest of the test. k >= 2, as n <= 1 has no pipeline cell width."""
    def move(k):
        assert k >= 2, k
        monkeypatch.setattr(counting.Config, "cutoff", k)
    return move
