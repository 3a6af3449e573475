"""Witnesses of the precision guards.

Each row names a guard, a lowered value and a witness: one fast check
against an mpmath transcription that passes with the guard as shipped and
fails with it lowered.  The guard is patched in every zetakit module that
binds its name, and restored afterwards.
"""

import math
import sys

import pytest
from mpmath import mp, mpc, mpf

from zetakit import numerics as nm
from zetakit.lineone import eta_zero_ordinate, eta_zero_scan, mellin_check
from zetakit.precision import GUARD_DIGITS, working


def _weighted_sum(terms, order):
    """sum_{n<=order} c_n terms(n) / d, with c and d the weights and
    divisor of ``_crvz_weights(order)``, at the current precision."""
    weights, d = nm._crvz_weights(order)
    return mp.fsum(c * terms(n) for n, c in enumerate(weights, 1)) / d


def _eta_zero_scan_misses():
    # |eta(1 + i b_k)| is the truncation of the planned sum itself, so the
    # route must resolve that sum, relative, at b = eta_zero_ordinate(k, D)
    misses = []
    for digits in (30, 50, 100):
        for k in (1, 3):
            b = eta_zero_ordinate(k, digits)
            got = eta_zero_scan(k, digits)
            order = nm._eta_quotient(mpc(1, b), 1, digits)[1]
            with mp.workdps(3 * digits + 60):
                s = mpc(1, b)
                want = abs(_weighted_sum(lambda n: mp.power(n, -s), order))
                misses.append(abs(got / want - 1))
    return misses, mpf("1e-7")


def _mellin_check_misses():
    # the audit's deviation at b = 1/2 is the truncation of its two planned
    # sums, S_1 = sum_k (-1)^k/(a+k) and S_2 = sum_k (-1)^k/(k+1-a), against
    # pi/sin(pi a), a = eps - i/2
    misses = []
    digits, b = 30, mpf(0.5)
    pad = math.ceil(math.pi * float(b) / math.log(10))
    for eps in (mpf(0.01), mpf(0.001)):
        got = mellin_check(b, eps, digits)
        with working(digits + pad):
            floor = nm._em_floor(digits + pad)
            orders = [nm._accel_plan(floor * c)[0] for c in (eps, 1 - eps)]
        with mp.workdps(3 * digits + 60):
            a = mpc(eps, -b)
            total = (_weighted_sum(lambda n: 1 / (a + n - 1), orders[0])
                     + _weighted_sum(lambda n: 1 / (n - a), orders[1]))
            closed = mp.pi / mp.sin(mp.pi * a)
            want = abs(total - closed) / abs(closed)
            misses.append(abs(got / want - 1))
    return misses, mpf("0.05")


@pytest.mark.parametrize("guard, lowered, witness", [
    # (a) the acceleration's guard digits: at GUARD_DIGITS the zero scan
    # misses its sum by 4.7e-7 to 5.3e-5, and by at most 1.2e-9 at 15
    pytest.param("_ACCEL_GUARD_DIGITS", GUARD_DIGITS, _eta_zero_scan_misses, id="a"),
    # (b) the acceleration's fraction bits: at 0 the Mellin audit misses
    # its sums by 26% and 31%, and by 0.25% and 1.1% at 8
    pytest.param("_ACCEL_GUARD_BITS", 0, _mellin_check_misses, id="b"),
])
def test_guard_has_a_witness(monkeypatch, guard, lowered, witness):
    modules = [m for key, m in sys.modules.items()
               if key.startswith("zetakit") and hasattr(m, guard)]
    assert modules and all(getattr(m, guard) > lowered for m in modules)
    misses, tol = witness()
    assert max(misses) <= tol, [mp.nstr(m, 3) for m in misses]
    with monkeypatch.context() as patch:
        for module in modules:
            patch.setattr(module, guard, lowered)
        misses, tol = witness()
    assert max(misses) > tol, [mp.nstr(m, 3) for m in misses]
    assert all(getattr(m, guard) > lowered for m in modules)
