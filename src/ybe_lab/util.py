"""Small integer helpers shared across modules."""

import math


def is_int(v) -> bool:
    """The package's int rule: an int, never a bool (True == 1 otherwise)."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_size(n) -> None:
    """The package's rule for a number of points: an int (is_int), at least 1."""
    if not is_int(n):
        raise ValueError("n must be an int")
    if n < 1:
        raise ValueError("n must be positive")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def square_part(n: int) -> int:
    """Largest k with k*k dividing n.

    Trial division runs only up to the cube root: what remains then has
    at most two prime factors, so it adds to k only as a prime square.
    """
    if n < 1:
        raise ValueError("square_part needs a positive integer")
    k = 1
    d = 2
    while d * d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        k *= d ** (e // 2)
        d += 1 if d == 2 else 2
    r = math.isqrt(n)
    return k * r if r * r == n else k
