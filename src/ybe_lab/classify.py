"""Isomorphism, parameter recovery, counting, and the exhaustive oracle.

Two solutions are isomorphic when a bijection phi of carriers satisfies
phi(sigma_x(y)) = sigma'_{phi(x)}(phi(y)) for all x, y. For eligible
solutions (indecomposable, abelian permutation group, level <= 2) the
parameter triple of the isomorphic family member is recovered directly
from the structure: n2 is the common row order, n1 = n/n2, and r is the
unique exponent with sigma_{sigma_e(e)}^{n1} = sigma_e^{(r+1)*n1}. The
permutation group is then regular abelian (below), so recover_params
reads the row orders and r off cycles through e = 0, after one class-id
pass over the rows (perm.class_ids, which hashes no row of a regular
group), with no power or group built. A regular abelian group A is also
its own centralizer in the symmetric group, so recovery decides
"transitive and abelian" from a few rows
(perm.check_regular_abelian): commuting rows whose orbit of 0 is the
whole carrier generate A, and any other row lies in A iff it commutes
with them. Each such generator at least doubles the orbit, so there are
at most log2 n of them, and each distinct row is checked against those
alone, not against every other row.

The theory is used, not re-proved. A transitive abelian permutation
group G is regular: if g in G fixes x, then g(h(x)) = h(g(x)) = h(x)
for every h in G, so g fixes every point, and two elements of G are
equal iff they send 0 to the same point. Every check below leans on
this. explicit_iso_to_c builds its certificate phi from rho = sigma_0
and lam = sigma_{rho(0)} . rho^{-r-1}, by walks in s's own labels; phi
conjugates the member's translations to rho and lam, and each member
row to an element of G, so its check is one point per row: O(n), with
no member row built. Distinct triples are never isomorphic and Aut is
regular, so are_isomorphic decides eligible pairs by their triples, and
its certificate is the one isomorphism that fixes point 0, which is
also the search's first one. Ineligible input keeps the quick-reject
invariants and the backtracking search.

Counting: with k the largest integer whose square divides n, the family
has exactly sum over d | k of k/d members on n points (k of which have
cyclic permutation group), and distinct triples are never isomorphic.
"""

import itertools
from collections.abc import Iterator
from typing import NamedTuple

from .construct import CParams
from .core import Solution
from .errors import (
    BoundExceeded,
    NotAbelian,
    NotIndecomposable,
    NotMplAtMost2,
    StructureViolation,
)
from .perm import (
    Perm,
    all_commute,
    check_regular_abelian,
    class_ids,
    compose,
    cycle_length,
    inverse,
    orbits,
    order,
)
from .retract import mpl, mpl_at_most_2_on_classes
from .util import check_size, divisors, square_part

DEFAULT_ORACLE_BOUND = 5


class ClassifyOutcome(NamedTuple):
    params: CParams
    phi: Perm


def _invariants(s: Solution):
    """Isomorphism invariants for quick rejection, bucketing and filtering.

    (n, sorted row orders, number of distinct rows, one orbit?, rows
    commute?, mpl). The distinct rows generate the permutation group, so
    the fourth and fifth entries say whether it is transitive and abelian;
    no group is built.
    """
    rows = sorted(set(s.sigma))
    orders = {row: order(row) for row in rows}
    return (
        s.n,
        tuple(sorted(map(orders.__getitem__, s.sigma))),
        len(rows),
        len(orbits(s.n, rows)) == 1,
        all_commute(rows),
        mpl(s),
    )


def iso_search(sig1, sig2) -> Iterator[Perm]:
    """Every structure-preserving bijection sig1 -> sig2, lazily.

    Branches phi(0) over every order-compatible target, then propagates
    the forced images phi(sigma_x(y)) = sigma'_{phi(x)}(phi(y)) to
    closure; remaining choice points branch on the unmapped point with
    fewest candidates. Certificates come in a deterministic order, each
    once. A complete map is not checked again: propagate checks each
    point, when popped, against every point mapped so far, so every pair
    of points has been checked (test_iso_search_matches_brute_force).
    """
    n = len(sig1)
    ord1 = [order(row) for row in sig1]
    ord2 = [order(row) for row in sig2]

    def propagate(phi, used, stack, assigned) -> bool:
        while stack:
            u = stack.pop()
            for v in list(assigned):
                for x, y in ((u, v), (v, u)):
                    z = sig1[x][y]
                    w = sig2[phi[x]][phi[y]]
                    pz = phi[z]
                    if pz == -1:
                        if w in used:
                            return False
                        phi[z] = w
                        used.add(w)
                        assigned.append(z)
                        stack.append(z)
                    elif pz != w:
                        return False
        return True

    def branch(phi, used, assigned, x, cands):
        for t in cands:
            phi2, used2, assigned2 = phi[:], used | {t}, [*assigned, x]
            phi2[x] = t
            if propagate(phi2, used2, [x], assigned2):
                yield from extend(phi2, used2, assigned2)

    def extend(phi, used, assigned):
        if len(assigned) == n:
            yield tuple(phi)
            return
        best_x = -1
        best_cands: list[int] = []
        for x in range(n):
            if phi[x] != -1:
                continue
            cands = [t for t in range(n) if t not in used and ord2[t] == ord1[x]]
            if not cands:
                return
            if best_x == -1 or len(cands) < len(best_cands):
                best_x, best_cands = x, cands
                if len(cands) == 1:
                    break
        yield from branch(phi, used, assigned, best_x, best_cands)

    anchors = [t for t in range(n) if ord2[t] == ord1[0]]
    yield from branch([-1] * n, set(), [], 0, anchors)


def are_isomorphic(s1: Solution, s2: Solution) -> Perm | None:
    """Certificate phi with phi . sigma_x = sigma'_{phi(x)} . phi, or None.

    Eligible inputs are decided by their parameter triples: distinct
    triples are never isomorphic, and for equal ones, with c1 and c2 the
    certificates of explicit_iso_to_c, the answer is c2 . c1^{-1}. Both
    certificates send the member's point 0 to 0, and Aut is regular, so
    this is the one isomorphism fixing 0: the search's first certificate.
    If either input is ineligible, the quick-reject invariants (carrier
    size, row-order multiset, the number of distinct rows, transitivity
    and abelianness of the permutation group, multipermutation level) run
    before the backtracking search. test_parameter_route_matches_search
    checks the route against the search.
    """
    if s1.n != s2.n:
        return None
    try:
        (p1, c1), (p2, c2) = explicit_iso_to_c(s1), explicit_iso_to_c(s2)
    except (NotIndecomposable, NotAbelian, NotMplAtMost2):
        if _invariants(s1) != _invariants(s2):
            return None
        return next(iso_search(s1.sigma, s2.sigma), None)
    return compose(c2, inverse(c1)) if p1 == p2 else None


def recover_params(s: Solution) -> CParams:
    """Parameter triple of the family member isomorphic to s.

    Eligibility: permutation group transitive (indecomposable), abelian,
    and level <= 2; the errors are NotIndecomposable, NotAbelian,
    NotMplAtMost2. Three StructureViolation guards, rows of unequal
    orders, n1 = n/n2 not dividing n2, and n2 not dividing n1*r*r, fire
    only on raw Solution(n, rows) tables: an eligible solution is
    isomorphic to a member (the paper).

    No group is built, and one perm.class_ids pass numbers the rows: on
    an eligible table it compares each row once and hashes none, and on
    a loaded one, whose equal rows are one tuple, it is O(n). One row of
    each class stands for it, for perm.check_regular_abelian (module
    docstring) and the level test, which holds at n = 1 unasked.
    After the gate every row lies in one regular abelian group A of order
    n, so a row is known by its image of 0, and its order is the length
    of its cycle through 0, which divides n (Lagrange). Hence
    sigma_{rho(0)}^{n1} = rho^{(r+1)*n1}, with rho = sigma_0, holds iff
    rho^{(r+1)*n1}(0) = t, the image of 0 under sigma_{rho(0)}^{n1}: with
    i the number of rho-steps from 0 to t, r = (i/n1 - 1) mod n2/n1, and
    no power is built. A/<rho> has order n1, so the walk meets t, and t
    and rho^i(0) name one element of order n2/n1 = n2/gcd(i, n2), so n1
    divides i. Each step is O(n^2) on an eligible input: a family member
    has lcm(n1, n2/gcd(r, n2)) distinct rows, at most sqrt(n) on every
    member up to 5000 points.
    """
    cid = class_ids(s.sigma)
    rows = list(dict(zip(cid, s.sigma)).values())
    check_regular_abelian(s.n, rows)
    if not mpl_at_most_2_on_classes(s.sigma, cid):
        raise NotMplAtMost2("multipermutation level exceeds 2")
    row_orders = {cycle_length(row, 0) for row in rows}
    if len(row_orders) != 1:
        raise StructureViolation("rows have different orders")
    n2 = row_orders.pop()
    n1 = s.n // n2
    if n2 % n1:
        raise StructureViolation("row order does not split the carrier")
    rho = s.sigma[0]
    lam = s.sigma[rho[0]]
    target = 0
    for _ in range(n1):
        target = lam[target]
    # walk rho's cycle through 0 until it reaches target
    i, pt = 0, 0
    while pt != target:
        pt = rho[pt]
        i += 1
    r = (i // n1 - 1) % (n2 // n1)
    if (n1 * r * r) % n2:
        raise StructureViolation("recovered r fails the divisibility constraint")
    return CParams(n1, n2, r)


def explicit_iso_to_c(s: Solution) -> ClassifyOutcome:
    """Recovered parameters plus a verified certificate build_c(params) -> s.

    With rho = sigma_0 and lam = sigma_{rho(0)} . rho^{-r-1}, the
    certificate is phi(a*n2 + i) = (rho^i . lam^a)(0), so phi(0) = 0. It is
    read off walks, with no member built: row a walks rho from lam^a(0),
    and lam^{a+1}(0) is sigma_{rho(0)} at the point n2 - r - 1 steps along
    that walk. Then phi . T_(0,1) . phi^{-1} = rho and phi . T_(1,0) .
    phi^{-1} = lam for the member's translations T, since rho and lam
    commute. Member row (a, i) is the translation T_(d, r*d+1) with
    d = i - a*r mod n2, so phi conjugates it to lam^d . rho^{r*d+1}, an
    element of the regular group (module docstring), which equals
    sigma_{phi(x)} iff both send 0 to one point: sigma_{phi(x)}(0) =
    phi((d mod n1, r*d+1 mod n2)). That check at every x, O(n), decides,
    and raises StructureViolation. The walks close (rho has order n2);
    their test fails only on a triple recover_params did not give. lam^{n1}
    fixes 0 by r's choice, so phi's image is H(0), H = <rho, lam>; the
    check puts sigma_y in H for y in H(0), and the level test makes the
    rows constant along D = <sigma_x . rho^{-1}>, where <rho>D is the
    group, so H is the group and phi a bijection.
    """
    p = recover_params(s)
    n1, n2, r = p
    sigma = s.sigma
    rho = sigma[0]
    back = -(r + 1) % n2  # rho^{-r-1} is n2 - r - 1 rho-steps on a closed walk
    phi = []
    start = 0  # lam^a(0)
    for a in range(n1):
        pt = start
        for _ in range(n2):
            phi.append(pt)
            pt = rho[pt]
        if pt != start:
            raise StructureViolation("certificate verification failed")
        start = sigma[rho[0]][phi[a * n2 + back]]
    for x, (a, i) in enumerate(itertools.product(range(n1), range(n2))):
        d = (i - a * r) % n2
        if sigma[phi[x]][0] != phi[d % n1 * n2 + (r * d + 1) % n2]:
            raise StructureViolation("certificate verification failed")
    return ClassifyOutcome(p, tuple(phi))


def family_count(k: int) -> int:
    """Family members on n points with k = square_part(n): sum of d | k."""
    return sum(divisors(k))


def count_family(n: int) -> int:
    """Number of family members on n points."""
    check_size(n)
    return family_count(square_part(n))


def count_cyclic(n: int) -> int:
    """Number of family members on n points with cyclic permutation group."""
    check_size(n)
    return square_part(n)


def enumerate_family(n: int) -> list[CParams]:
    """All valid triples with n1*n2 = n, lexicographically ordered.

    With t = n / square_part(n), the valid r for (n1, n2) are exactly the
    multiples of t/n1 below n2/n1 (n1^2 divides n, so n1 divides t);
    test_enumerate_family_matches_brute_force checks this up to 2000.
    """
    check_size(n)
    k = square_part(n)
    t = n // k
    out = []
    # n1^2 divides n exactly when n1 divides k
    for n1 in divisors(k):
        n2 = n // n1
        out.extend(CParams(n1, n2, r) for r in range(0, n2 // n1, t // n1))
    return out


def exhaustive_enumerate(
    n: int,
    *,
    indecomposable: bool = False,
    abelian: bool = False,
    mpl_le_2: bool = False,
    max_n: int = DEFAULT_ORACLE_BOUND,
) -> list[Solution]:
    """Every solution on n points up to isomorphism, by brute-force search.

    Depth-first over sigma tables row by row in lexicographic order,
    pruning rows that violate the cycle condition on the pairs it already
    determines (and, when the abelian filter is on, rows that fail to
    commute with an earlier row, which any abelian completion needs).
    A completed table satisfies the cycle condition on every pair, so it
    is a finite cycle set, hence non-degenerate (Rump) and a solution; it
    is not verified again. The tests cover this:
    test_exhaustive_enumerate_reps_are_solutions_and_distinct (every class
    up to 4 points) and test_cycle_condition_implies_both_routes (all
    bijective 3-point tables). Each completion's invariants are computed
    once; the filters are read off them (transitivity, level; the abelian
    prune admits only commuting rows, so every completion is abelian) and
    they bucket the deduplication by isomorphism. Each class is
    represented by its lexicographically smallest discovered table, which
    is also discovery order. n and max_n follow the size rule
    (util.check_size); n above max_n raises BoundExceeded.
    """
    check_size(n)
    check_size(max_n)
    if n > max_n:
        raise BoundExceeded(f"exhaustive search bounded at {max_n} points")
    all_perms = list(itertools.permutations(range(n)))
    inv_of = {p: inverse(p) for p in all_perms}
    rows: list[Perm] = []
    invs: list[Perm] = []
    reps: list[Solution] = []
    rep_keys: list[tuple] = []

    def newly_complete_pairs_ok() -> bool:
        m = len(rows)
        last = m - 1
        for a in range(m):
            qa = invs[a]
            for b in range(m):
                if a == b:
                    continue
                u = qa[b]
                v = invs[b][a]
                if u >= m or v >= m or max(a, b, u, v) != last:
                    continue
                qb, qu, qv = invs[b], invs[u], invs[v]
                for c in range(n):
                    if qu[qa[c]] != qv[qb[c]]:
                        return False
        return True

    def record(sol: Solution) -> None:
        key = _invariants(sol)
        *_, transitive, _, level = key
        if (indecomposable and not transitive) or (
            mpl_le_2 and (level is None or level > 2)
        ):
            return
        for rep, k in zip(reps, rep_keys):
            if k == key and next(iso_search(rep.sigma, sol.sigma), None) is not None:
                return
        reps.append(sol)
        rep_keys.append(key)

    def dfs() -> None:
        if len(rows) == n:
            record(Solution(len(rows), tuple(rows)))
            return
        for p in all_perms:
            if abelian and any(compose(p, q) != compose(q, p) for q in rows):
                continue
            rows.append(p)
            invs.append(inv_of[p])
            if newly_complete_pairs_ok():
                dfs()
            rows.pop()
            invs.pop()

    dfs()
    return reps
