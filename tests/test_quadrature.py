import pytest
from mpmath import mp, mpf

from zetakit import numerics
from zetakit.errors import AccuracyError
from zetakit.numerics import integrate_interval


def test_interval_engine_smooth():
    v, err = integrate_interval(lambda x: mp.sin(x), 0, mp.pi, mpf("1e-30"))
    assert abs(v - 2) <= mpf("1e-28")
    assert abs(v - 2) <= err <= mpf("1e-30")


def test_interval_engine_depth_exhaustion(monkeypatch):
    # |x - 1/3|^(-1/2) has an interior singularity the bisection cannot
    # resolve within a tiny depth budget
    monkeypatch.setattr(numerics, "_MAX_DEPTH", 5)
    f = lambda x: abs(x - mpf(1) / 3) ** mpf("-0.5")
    with pytest.raises(AccuracyError) as exc:
        integrate_interval(f, 0, 1, mpf("1e-25"))
    assert exc.value.achieved is not None
