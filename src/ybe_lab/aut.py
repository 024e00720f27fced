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
from .perm import DEFAULT_MAX_CLOSURE, Perm, PermGroup, inverse, orbits, precompose


def automorphism_group(s: Solution) -> PermGroup:
    """All self-isomorphisms of s, as a concrete permutation group.

    An eligible s (indecomposable, abelian, level <= 2) is isomorphic to a
    family member by the certificate phi of explicit_iso_to_c, so its
    group is phi . Aut(member) . phi^{-1}: regular, one element per point.
    The closed form f_(s,t) (aut_c_closed_form) is a translation after a
    shear, f_(s,t) = T_(s,t) . h_{d'} with T_(s,t)((a,i)) = (a+s, i+t),
    h_{d'}((a,i)) = (a + d*d', i + r*d*d') and d' = t - s*r mod n2, and
    h_{d'} depends only on (d' mod n1, r*d' mod n2). So phi conjugates
    T_(1,0), T_(0,1) and each distinct shear once, and the n elements are
    itemgetter compositions of those: O(k n) for k shears plus 2n
    compositions, with no closed form evaluated per element. Other input
    falls back to the search, whose automorphisms are the whole group (no
    closure); it stops with SizeLimitExceeded past DEFAULT_MAX_CLOSURE of
    them. Both paths give the sorted elements and the orbits, as
    group_closure would. test_automorphism_group_equals_search and
    test_automorphism_group_falls_back_to_search check both paths
    against the closure of the search's list, and
    test_automorphism_group_conjugates_the_closed_form checks the
    elements against aut_c_closed_form.
    """
    try:
        p, phi = explicit_iso_to_c(s)
    except (NotIndecomposable, NotAbelian, NotMplAtMost2):
        auts = tuple(islice(iso_search(s.sigma, s.sigma), DEFAULT_MAX_CLOSURE + 1))
        if len(auts) > DEFAULT_MAX_CLOSURE:
            raise SizeLimitExceeded(f"more than {DEFAULT_MAX_CLOSURE} automorphisms")
        return PermGroup(s.n, tuple(sorted(auts)), orbits(s.n, auts))
    n1, n2, r = p
    n = s.n
    after_phi_inv = precompose(inverse(phi))

    def conjugate(g: Perm) -> Perm:
        return after_phi_inv(precompose(g)(phi))

    # the translations T_(1,0) and T_(0,1), in the member's labels
    after_s = precompose(conjugate(tuple((x + n2) % n for x in range(n))))
    after_t = precompose(conjugate(tuple(x - x % n2 + (x + 1) % n2 for x in range(n))))
    shears = {}
    elements = []
    translation_s = tuple(range(n))  # phi . T_(s,0) . phi^{-1}
    for s_ in range(n1):
        translation = translation_s  # phi . T_(s,t) . phi^{-1}
        for t in range(n2):
            d_st = (t - s_ * r) % n2
            key = (d_st % n1, r * d_st % n2)
            after_shear = shears.get(key)
            if after_shear is None:
                after_shear = shears[key] = precompose(conjugate(_shear(p, d_st)))
            elements.append(after_shear(translation))
            translation = after_t(translation)
        translation_s = after_s(translation_s)
    return PermGroup(n, tuple(sorted(elements)), (tuple(range(n)),))


def _shear(p, d_st: int) -> Perm:
    # h_{d'}((a,i)) = (a + d*d', i + r*d*d') with d = i - a*r mod n2
    n1, n2, r = p
    img = []
    for a in range(n1):
        for i in range(n2):
            dd = (i - a * r) % n2 * d_st
            img.append((a + dd) % n1 * n2 + (i + r * dd) % n2)
    return tuple(img)


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
