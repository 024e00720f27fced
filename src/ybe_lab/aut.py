"""Automorphism groups, the family closed form and its invariant factors, and
the cyclicity test."""

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
from .util import is_int


def automorphism_group(s: Solution) -> PermGroup:
    """All self-isomorphisms of s, as a concrete permutation group.

    An eligible s (indecomposable, abelian, level <= 2) is isomorphic to a
    family member by the certificate phi of explicit_iso_to_c, so its
    group is phi . Aut(member) . phi^{-1}: regular, one element per point
    (the argument is in the classify module docstring). Each closed-form
    automorphism (aut_c_closed_form) is a translation after a shear,
    f_(s,t) = T_(s,t) . h_1^{d'} with d' = t - s*r mod n2 and the shear
    h_1((a,i)) = (a + d, i + r*d), d = i - a*r mod n2: h_1 moves each
    point by an amount read off its row, which h_1 keeps, so d' steps of
    h_1 are the closed form's shear by d'. T_(0,1), T_(1,0) and h_1 are
    read in s's own labels, with no member permutation built: phi conjugates
    T_(0,1) to rho = sigma_0 and T_(1,0) to lam, read off phi as
    lam(phi(j)) = phi(j + n2 mod n). At each point x, h_1(x) is the
    member row m_x applied to T_(0,1)^{-1}(x), so phi conjugates h_1 to
    e(y) = sigma_y(rho^{-1}(y)). The group is thus lam^s . rho^t . e^{d'}
    over the n points (s, t), with d' taken mod the order of e (which
    divides n2): at most 2n + n2 compositions, O(n^2) in all. Other input
    falls back to the search, whose automorphisms are the whole group (no
    closure); it stops with SizeLimitExceeded past DEFAULT_MAX_CLOSURE of
    them. Both paths give the sorted elements and the orbits, as
    group_closure would. test_automorphism_group_equals_search and
    test_automorphism_group_falls_back_to_search check both paths
    against the closure of the search's list, and
    test_automorphism_group_conjugates_the_closed_form checks the
    elements against aut_c_closed_form. The CLI's aut builds this group
    only for --elements and for ineligible input: otherwise it reads the
    order and invariant factors off the triple (aut_c_invariant_factors).
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
    lam = [0] * n
    for j, y in enumerate(phi):
        lam[y] = phi[(j + n2) % n]
    rho = s.sigma[0]
    rho_inv = inverse(rho)
    after_e = precompose(tuple(s.sigma[y][rho_inv[y]] for y in range(n)))
    # e^0, e^1, ... up to its order, which divides n2
    shears = [tuple(range(n))]
    while (e_k := after_e(shears[-1])) != shears[0]:
        shears.append(e_k)
    after_shear = [precompose(e_k) for e_k in shears]
    after_lam, after_rho = precompose(tuple(lam)), precompose(rho)
    elements = []
    translation_s = shears[0]  # lam^s
    for s_ in range(n1):
        translation = translation_s  # lam^s . rho^t
        for t in range(n2):
            elements.append(after_shear[(t - s_ * r) % len(shears)](translation))
            translation = after_rho(translation)
        translation_s = after_lam(translation_s)
    return PermGroup(n, tuple(sorted(elements)), (tuple(range(n)),))


def aut_c_closed_form(p, s: int, t: int) -> Perm:
    """The automorphism of build_c(p) indexed by the point (s, t).

    f_{(s,t)}((a,i)) = (s + a + d*d', t + i + r*d*d') with d = i - a*r,
    d' = t - s*r (mod n2). These n1*n2 maps form the full automorphism
    group of the member. Raises ValueError unless (s, t) is a point.
    """
    n1, n2, r = p
    if not c_params_valid(n1, n2, r):
        raise InvalidParams(f"invalid triple ({n1}, {n2}, {r})")
    if not (is_int(s) and is_int(t) and 0 <= s < n1 and 0 <= t < n2):
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


def aut_c_invariant_factors(p) -> tuple[int, ...]:
    """Invariant factors of Aut(C(n1, n2, r)), in closed form.

    They are (d1, n/d1), any 1 dropped, with m = n2/n1 and d1 = 2*n1 if
    m = 0 mod 4 and r = 2 mod 4, d1 = n1/2 if n1 is even and m odd, and
    d1 = n1 otherwise. Aut is regular abelian of order n (the paper), so
    with these it is known from the triple alone. The rule is not derived
    here: test_aut_invariant_factors_follow_the_closed_form checks it
    against invariant_factors(automorphism_group(build_c(p))) on every
    member up to 128 points, and up to 300 under -m slow. Raises
    InvalidParams for an invalid triple.
    """
    n1, n2, r = p
    if not c_params_valid(n1, n2, r):
        raise InvalidParams(f"invalid triple ({n1}, {n2}, {r})")
    m = n2 // n1
    if m % 4 == 0 and r % 4 == 2:
        d1 = 2 * n1
    elif n1 % 2 == 0 and m % 2:
        d1 = n1 // 2
    else:
        d1 = n1
    return tuple(f for f in (d1, n1 * n2 // d1) if f > 1)


def is_aut_cyclic_c1nr(n: int, r: int) -> bool:
    """Whether Aut(C(1, n, r)) is cyclic: it is not exactly when
    n = 0 mod 4 and r = 2 mod 4 (aut_c_invariant_factors)."""
    return len(aut_c_invariant_factors((1, n, r))) <= 1
