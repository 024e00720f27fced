"""Automorphism groups, the family closed form, and the cyclicity test."""

from .classify import _iso_search
from .construct import c_params_valid
from .core import Solution
from .errors import InvalidParams
from .perm import Perm, PermGroup, group_closure


def automorphism_group(s: Solution) -> PermGroup:
    """All self-isomorphisms of s, as a concrete permutation group."""
    elements = _iso_search(s.sigma, s.sigma, find_all=True)
    return group_closure(elements)


def aut_c_closed_form(p, s: int, t: int) -> Perm:
    """The automorphism of build_c(p) indexed by the point (s, t).

    f_{(s,t)}((a,i)) = (s + a + d*d', t + i + r*d*d') with d = i - a*r,
    d' = t - s*r (mod n2). These n1*n2 maps form the full automorphism
    group of the member.
    """
    n1, n2, r = p
    if not c_params_valid(n1, n2, r):
        raise InvalidParams(f"invalid triple ({n1}, {n2}, {r})")
    if not (0 <= s < n1 and 0 <= t < n2):
        raise ValueError("index point outside the carrier")
    d_st = (t - s * r) % n2
    img = []
    for a in range(n1):
        for i in range(n2):
            d_ai = (i - a * r) % n2
            aa = (s + a + d_ai * d_st) % n1
            ii = (t + i + r * d_ai * d_st) % n2
            img.append(aa * n2 + ii)
    return tuple(img)


def is_aut_cyclic_c1nr(n: int, r: int) -> bool:
    """Whether Aut(C(1, n, r)) is cyclic: it is not exactly when
    n = 0 mod 4 and r = 2 mod 4."""
    if not c_params_valid(1, n, r):
        raise InvalidParams(f"invalid cyclic-family pair ({n}, {r})")
    return not (n % 4 == 0 and r % 4 == 2)
