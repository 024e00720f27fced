import math
import random

import pytest

from ybe_lab.classify import count_cyclic, count_family, enumerate_family, exhaustive_enumerate
from ybe_lab.construct import build_nonabelian_example
from ybe_lab.util import divisors, factorize, square_part


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-4)


def test_factorize_reconstructs_n():
    for n in range(1, 500):
        prod = 1
        for p, e in factorize(n).items():
            prod *= p**e
        assert prod == n


def test_divisors_known_values():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(16) == [1, 2, 4, 8, 16]
    assert divisors(97) == [1, 97]


def test_divisors_matches_trial_division():
    for n in range(1, 300):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_square_part_known_values():
    assert square_part(1) == 1
    assert square_part(16) == 4
    assert square_part(81) == 9
    assert square_part(1000) == 10
    assert square_part(30) == 1
    assert square_part(72) == 6
    with pytest.raises(ValueError):
        square_part(0)


def test_square_part_is_largest_square_divisor():
    for n in range(1, 400):
        k = square_part(n)
        assert n % (k * k) == 0
        for m in range(k + 1, int(n**0.5) + 1):
            assert n % (m * m) != 0


def test_square_part_matches_references():
    # every n <= 10^5 against the definition, by a sieve over squares: the
    # last m with m*m dividing n is the largest
    limit = 10**5
    best = [1] * (limit + 1)
    for m in range(2, math.isqrt(limit) + 1):
        for n in range(m * m, limit + 1, m * m):
            best[n] = m
    assert all(square_part(n) == best[n] for n in range(1, limit + 1))
    # products of random prime powers: past the cube root bound what is
    # left of n is 1, p, p^2 or p*q, for large primes as for small ones
    rng = random.Random(15)
    primes = [p for p in range(2, 1000) if divisors(p) == [1, p]]
    primes += [10007, 1000003]
    for _ in range(100):
        n = k = 1
        for p in rng.sample(primes, rng.randint(1, 4)):
            e = rng.randint(1, 4)
            n *= p**e
            k *= p ** (e // 2)
        assert square_part(n) == k, n


def exhaustive_enumerate_max_n(max_n):
    return exhaustive_enumerate(2, max_n=max_n)


@pytest.mark.parametrize(
    "n, message",
    [
        (True, "an int"),
        (2.0, "an int"),
        (2.5, "an int"),
        ("3", "an int"),
        (None, "an int"),
        (0, "positive"),
        (-1, "positive"),
    ],
)
@pytest.mark.parametrize(
    "sized",
    [
        count_family,
        count_cyclic,
        enumerate_family,
        exhaustive_enumerate,
        exhaustive_enumerate_max_n,
        build_nonabelian_example,
    ],
)
def test_sizes_follow_one_rule(sized, n, message):
    # a number of points is an int, never a bool, and at least 1
    # (util.check_size), the oracle's bound max_n included: True is not
    # run as 1, and 2.0, 2.5, "3" or None raise ValueError, not TypeError
    with pytest.raises(ValueError, match=f"n must be {message}"):
        sized(n)
