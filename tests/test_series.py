import pytest
from mpmath import mp, mpf

from zetakit.errors import ConfigError, EvaluationError
from zetakit.numerics import accelerate_alternating


def ln2_oracle(dps=60):
    """ln 2 by Newton inversion of the exponential's Taylor series."""
    with mp.workdps(dps):
        def exp_taylor(x):
            term = mpf(1)
            total = mpf(1)
            for k in range(1, 500):
                term *= x / k
                total += term
                if abs(term) < mpf(10) ** (-(dps + 5)):
                    break
            return total

        x = mpf("0.7")
        for _ in range(60):
            e = exp_taylor(x)
            dx = (e - 2) / e
            x -= dx
            if abs(dx) < mpf(10) ** (-(dps + 2)):
                break
        return x


def test_non_finite_term_reports_index():
    def coeff(n):
        return mpf("inf") if n == 7 else 1 / mpf(n)

    with pytest.raises(EvaluationError) as exc:
        accelerate_alternating(coeff, 30)
    assert exc.value.index == 7


def test_accel_ln2_order_30_gives_25_digits():
    r = accelerate_alternating(lambda n: 1 / mpf(n), 30)
    assert abs(r.value - ln2_oracle()) < mpf("1e-25")
    assert r.terms_used == 30


def test_accel_eta_two():
    # (1 - 2^(1-2)) * zeta(2) = pi^2 / 12
    r = accelerate_alternating(lambda n: 1 / mpf(n) ** 2, 30)
    assert abs(r.value - mp.pi ** 2 / 12) < mpf("1e-24")


def test_accel_zero_series():
    r = accelerate_alternating(lambda n: mpf(0), 12)
    assert r.value == 0


def test_accel_order_limits():
    with pytest.raises(ConfigError):
        accelerate_alternating(lambda n: mpf(1) / n, 3)
    with pytest.raises(ConfigError):
        accelerate_alternating(lambda n: mpf(1) / n, 10_001)


@pytest.mark.parametrize("s", ["0.5", "1.3", "2", "3.1", "4"])
def test_accel_matches_partial_alternating_sums(s):
    # the classic alternating-series bound certifies the partial sum to its
    # first omitted term; the accelerated value must sit inside that window
    s = mpf(s)
    N = 2001
    partial = mpf(0)
    for n in range(1, N + 1):
        partial += (-1) ** (n - 1) / mpf(n) ** s
    first_omitted = 1 / mpf(N + 1) ** s
    acc = accelerate_alternating(lambda n: 1 / mpf(n) ** s, 60)
    assert abs(acc.value - partial) <= first_omitted * mpf("1.01") + mpf("1e-18")
