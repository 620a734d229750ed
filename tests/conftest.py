import numpy as np
import pytest

import thetaparity as tp


@pytest.fixture(scope="session")
def b_small():
    """Membership bitmap of B with 2^12 coefficients."""
    return tp.build_B(1 << 12)


@pytest.fixture(scope="session")
def ctx20k():
    """Series context covering n <= 20000, enough for statement unit tests."""
    limit = 20001
    return tp.SeriesContext(tp.build_B(limit), tp.inverse_seventh_power(limit))


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, length) of every np.fft.rfft and irfft call, in order."""
    calls = []
    for name in ("rfft", "irfft"):
        def recorded(a, n=None, *args, _name=name, _real=getattr(np.fft, name), **kwargs):
            calls.append((_name, n))
            return _real(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    return calls
