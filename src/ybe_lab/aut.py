"""Automorphism groups, the family closed form, and the cyclicity test."""

from itertools import islice

from .classify import explicit_iso_to_c, iso_search
from .construct import c_params_valid
from .core import Solution
from .errors import (
    InvalidParams,
    NotAbelian,
    NotIndecomposable,
    NotMplAtMost2,
    SizeLimitExceeded,
)
from .perm import DEFAULT_MAX_CLOSURE, Perm, PermGroup, compose, inverse, orbits


def automorphism_group(s: Solution) -> PermGroup:
    """All self-isomorphisms of s, as a concrete permutation group.

    An eligible s (indecomposable, abelian, level <= 2) is isomorphic to a
    family member by the certificate phi of explicit_iso_to_c, so its
    group is phi . Aut(member) . phi^{-1}, read off aut_c_closed_form: it
    is regular, and its generators are all its elements, ordered by the
    image of 0 as the search finds them. Other input falls back to the
    search, whose automorphisms are the whole group (no closure); it
    stops with SizeLimitExceeded past DEFAULT_MAX_CLOSURE of them.
    test_automorphism_group_equals_search and
    test_automorphism_group_falls_back_to_search check both paths
    against the closure of the search's list.
    """
    try:
        p, phi = explicit_iso_to_c(s)
    except (NotIndecomposable, NotAbelian, NotMplAtMost2):
        auts = tuple(islice(iso_search(s.sigma, s.sigma), DEFAULT_MAX_CLOSURE + 1))
        if len(auts) > DEFAULT_MAX_CLOSURE:
            raise SizeLimitExceeded(f"more than {DEFAULT_MAX_CLOSURE} automorphisms")
        return PermGroup(s.n, auts, tuple(sorted(auts)), orbits(s.n, auts))
    phi_inv = inverse(phi)
    elements = tuple(sorted(
        compose(phi, compose(aut_c_closed_form(p, a, i), phi_inv))
        for a in range(p.n1)
        for i in range(p.n2)
    ))
    return PermGroup(s.n, elements, elements, (tuple(range(s.n)),))


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
