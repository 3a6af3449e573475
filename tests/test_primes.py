from hypothesis import given, settings, strategies as st

from zetakit.primes import primes_array_up_to


def primes_up_to(n):
    return primes_array_up_to(n).tolist()


def trial_division_count(n):
    count = 0
    for m in range(2, n + 1):
        if m > 2 and m % 2 == 0:
            continue
        d = 3
        is_p = m == 2 or m % 2 == 1
        while is_p and d * d <= m:
            if m % d == 0:
                is_p = False
            d += 2
        if is_p and m >= 2:
            count += 1
    return count


def test_examples():
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(2) == [2]
    assert primes_up_to(1) == []
    assert primes_up_to(0) == []


@given(st.integers(min_value=0, max_value=20_000))
@settings(max_examples=100, deadline=None)
def test_count_matches_trial_division(n):
    assert len(primes_up_to(n)) == trial_division_count(n)


def test_classical_checkpoints():
    assert len(primes_up_to(10 ** 5)) == 9592
    assert len(primes_up_to(10 ** 6)) == 78498
