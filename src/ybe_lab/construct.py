"""The canonical family C(n1, n2, r) and the two isotope constructions.

C(n1, n2, r) lives on Z_{n1} x Z_{n2} with n1 | n2, 0 <= r < n2/n1 and
n2 | n1*r^2, flattened by (a, i) -> a*n2 + i. Writing d = i - a*r mod n2,
the left action is

    sigma_{(a,i)}((b,j)) = (b + d mod n1, j + r*d + 1 mod n2),

which is indecomposable, has multipermutation level at most 2, and has
abelian permutation group Z_{n1} x Z_{n2}. Every finite indecomposable
solution of level <= 2 with abelian permutation group is isomorphic to
exactly one member (see classify.recover_params).

The isotopes connect level <= 2 to 2-reductivity: composing every row of a
2-reductive solution with one compatible permutation pi yields a level
<= 2 solution, and composing rows with sigma_e^{-1} undoes it.
"""

from typing import NamedTuple

from .core import Solution
from .errors import (
    ConditionFailed,
    InvalidParams,
    NotMplAtMost2,
    NotTwoReductive,
)
from .perm import inverse, is_perm, precompose
from .retract import is_2_reductive, is_mpl_at_most_2
from .util import check_size, is_int


class CParams(NamedTuple):
    n1: int
    n2: int
    r: int


def c_params_valid(n1: int, n2: int, r: int) -> bool:
    """True iff all three are ints, n1 | n2, 0 <= r < n2/n1 and n2 | n1*r^2.

    n1 >= 1 is tested; n2 >= 1 then follows from 0 <= r < n2 // n1."""
    return (
        all(map(is_int, (n1, n2, r)))
        and n1 >= 1
        and n2 % n1 == 0
        and 0 <= r < n2 // n1
        and (n1 * r * r) % n2 == 0
    )


def build_c(p) -> Solution:
    """Build the family member for a valid parameter triple.

    Row (a, i) is (b, j) -> (b + d mod n1, j + r*d + 1 mod n2) with
    d = i - a*r mod n2, so it depends only on (d mod n1, r*d mod n2), its
    class: equal rows are one tuple, built once. Raises InvalidParams.
    The member is a solution by construction, so its axioms are not
    checked here; test_build_c_members_are_solutions and acceptance
    criterion 4 verify every member up to 24 points, and
    test_build_c_tau_matches_closed_form checks its derived tau against
    tau_{(b,j)}((a,i)) = (a + b*r - (j+1), i - (j+1)*r + b*r^2 - 1).
    No library path builds a member, or a member row, to check a
    certificate: classify checks one point per row in the input's labels.
    """
    n1, n2, r = p
    if not c_params_valid(n1, n2, r):
        raise InvalidParams(f"invalid triple ({n1}, {n2}, {r})")
    by_class = {}
    rows = []
    for a in range(n1):
        for i in range(n2):
            d = (i - a * r) % n2
            key = (d % n1, r * d % n2)
            row = by_class.get(key)
            if row is None:
                shift = (r * d + 1) % n2
                cycle = (*range(shift, n2), *range(shift))  # j -> j + r*d + 1
                row = by_class[key] = tuple(
                    [(b + d) % n1 * n2 + j for b in range(n1) for j in cycle]
                )
            rows.append(row)
    return Solution(len(rows), tuple(rows))


def pi_isotope(s: Solution, pi) -> Solution:
    """Compose every row of a 2-reductive solution with pi.

    Requires is_2_reductive(s) and the compatibility condition
    sigma_{pi(y)} pi sigma_x = sigma_{pi(x)} pi sigma_y for all x, y;
    the first failing pair (lexicographic) is raised as ConditionFailed.
    The condition at (y, x) is the one at (x, y) with its sides swapped,
    and it holds at x = y, so the first failing pair has x < y and only
    those pairs are tested. pi is composed after each row once.
    The result has multipermutation level at most 2.
    """
    pi = tuple(pi)
    if len(pi) != s.n or not is_perm(pi):
        raise ValueError("pi must be a permutation of the carrier")
    if not is_2_reductive(s):
        raise NotTwoReductive("base solution must be 2-reductive")
    sigma = s.sigma
    # after[x](f) = f . pi . sigma_x
    after = [precompose(precompose(row)(pi)) for row in sigma]
    for x in range(s.n):
        for y in range(x + 1, s.n):
            if after[x](sigma[pi[y]]) != after[y](sigma[pi[x]]):
                raise ConditionFailed(x, y)
    rows = tuple(map(precompose(pi), sigma))
    return Solution(len(rows), rows)


def inverse_isotope(s: Solution, e: int) -> Solution:
    """Compose every row of a level <= 2 solution with sigma_e^{-1}.

    The result is 2-reductive with identity row at e, and composing its
    rows back with sigma_e recovers s. Raises ValueError unless e is a point.
    """
    if not (is_int(e) and 0 <= e < s.n):
        raise ValueError(f"base point {e!r} outside carrier")
    if not is_mpl_at_most_2(s):
        raise NotMplAtMost2("solution has level greater than 2")
    rows = tuple(map(precompose(inverse(s.sigma[e])), s.sigma))
    return Solution(len(rows), rows)


def build_nonabelian_example(n: int) -> Solution:
    """Indecomposable level-2 witness with non-abelian permutation group.

    Carrier Z_n x {0,1} flattened by (a, i) -> 2a + i, with
    sigma_{(a,i)}((b,j)) = (i - b mod n, 1 - j): the pi-isotope of the
    2-reductive mesh (b, j) -> (b + i, j) by pi((a,i)) = (-a, 1-i). The
    permutation group has order 2n and is non-abelian for n >= 3.
    sigma_{(a,i)} depends on i alone, through i mod n, so the rows are
    one tuple per value, shared as build_c shares one per row class.
    """
    check_size(n)
    rows = [
        tuple(2 * ((i - b) % n) + 1 - j for b in range(n) for j in range(2))
        for i in range(min(n, 2))
    ]
    return Solution(2 * n, (rows[0], rows[1 % n]) * n)
