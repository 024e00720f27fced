"""Test oracles written independently of the library internals.

Everything here recomputes definitions from scratch on plain lists and
dicts so that library results are checked against a second code path,
not against themselves. The one exception is forbid_group_closure, a
guard that makes any group closure inside the library fail a test.
"""

import itertools
import math
import random
import sys
from collections import Counter

from ybe_lab import perm

# frozen 4-point fixtures found by the exhaustive search: one of level 3,
# one whose retraction stalls (not a multipermutation solution)
LEVEL3 = [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]]
STALLED = [[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]]
# sigma_x(y) = y + k(x) mod 27 with k(x) = 1 + 3x + 9x(x-1)/2: rows are
# powers of one 27-cycle, so the solution is indecomposable with cyclic
# permutation group, and its level is 3
CYCLIC_LEVEL3 = [
    [(y + 1 + 3 * x + 9 * (x * (x - 1) // 2)) % 27 for y in range(27)] for x in range(27)
]


def _inverse_rows(table):
    """inv[x][v] = y with table[x][y] = v; rows must be bijective."""
    n = len(table)
    inv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            inv[x][v] = y
    return inv


def _pair_map(table):
    """The map r(x, y) = (sigma_x(y), tau_y(x)) as a dict, with tau derived
    from sigma so that r is involutive; rows must be bijective."""
    n = len(table)
    inv = _inverse_rows(table)
    r = {}
    for x in range(n):
        for y in range(n):
            u = table[x][y]
            r[(x, y)] = (u, inv[u][x])
    return r


def oracle_is_solution(table) -> bool:
    """Accept iff the table is an involutive non-degenerate solution.

    Builds the pair map r explicitly and checks r.r = id plus the braid
    relation on every triple, step by step.
    """
    n = len(table)
    for row in table:
        if sorted(row) != list(range(n)):
            return False
    r = _pair_map(table)
    for pair, image in r.items():
        if r[image] != pair:
            return False
    return oracle_braid_witness(table) is None


def _braid_sides(r, x, y, z):
    """r23 r12 r23 and r12 r23 r12 at (x, y, z), applying r step by step."""
    b, c = r[(y, z)]
    a, b2 = r[(x, b)]
    c2, d = r[(b2, c)]
    e, f = r[(x, y)]
    g, h = r[(f, z)]
    i, j = r[(e, g)]
    return (a, c2, d), (i, j, h)


def oracle_braid_witness(table):
    """First (x, y, z) where the braid relation of r fails, or None.

    Rows must be bijective. Compares both sides on every triple, in
    lexicographic order.
    """
    n = len(table)
    r = _pair_map(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs, rhs = _braid_sides(r, x, y, z)
                if lhs != rhs:
                    return (x, y, z)
    return None


def braid_fails_at(table, x, y, z) -> bool:
    """True when the braid relation of r fails at the one triple (x, y, z)."""
    lhs, rhs = _braid_sides(_pair_map(table), x, y, z)
    return lhs != rhs


def _cycle_sides(inv, a, b, c):
    """sigma^{-1}_{sigma^{-1}_a(b)} sigma^{-1}_a and its swap, at the point c."""
    u = inv[a][b]
    v = inv[b][a]
    return inv[u][inv[a][c]], inv[v][inv[b][c]]


def oracle_cycle_witness(table):
    """First (a, b, c) failing the cycle condition, or None."""
    n = len(table)
    inv = _inverse_rows(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs, rhs = _cycle_sides(inv, a, b, c)
                if lhs != rhs:
                    return (a, b, c)
    return None


def cycle_condition_fails_at(table, a, b, c) -> bool:
    """True when the cycle condition fails at the one triple (a, b, c)."""
    lhs, rhs = _cycle_sides(_inverse_rows(table), a, b, c)
    return lhs != rhs


def direct_product(s, t):
    """Direct product: sigma_(x1,x2) = (sigma_x1, sigma'_x2) on the pairs
    flattened as x1 * len(t) + x2; the product of solutions is one."""
    m = len(t)
    return [
        [s[x1][y1] * m + t[x2][y2] for y1 in range(len(s)) for y2 in range(m)]
        for x1 in range(len(s))
        for x2 in range(m)
    ]


def relabel(sigma, g):
    """Conjugate table: new row at g(x) is g . sigma_x . g^{-1}."""
    n = len(sigma)
    ginv = [0] * n
    for i, v in enumerate(g):
        ginv[v] = i
    return [[g[sigma[ginv[x]][ginv[y]]] for y in range(n)] for x in range(n)]


def certificate_by_conjugation(sigma, p):
    """The certificate C(p) -> sigma checked on whole rows, or None.

    phi(a*n2 + i) = (rho^i . lam^a)(0) with rho = sigma_0 and
    lam = sigma_{rho(0)} . rho^{-r-1}, as the library builds it. phi is
    kept only if it is a bijection with phi(m_x(y)) = sigma_{phi(x)}(phi(y))
    for every member row m_x, written from the closed form
    m_(a,i)((b,j)) = (b + d mod n1, j + r*d + 1 mod n2), d = i - a*r mod n2,
    and every point y: no regularity argument, every cell compared.
    """
    n1, n2, r = p
    n = n1 * n2
    rho = list(sigma[0])
    rho_inv = [0] * n
    for x, y in enumerate(rho):
        rho_inv[y] = x
    back = list(range(n))
    for _ in range(r + 1):
        back = [rho_inv[y] for y in back]
    lam = [sigma[rho[0]][back[x]] for x in range(n)]
    phi, start = [], 0
    for _ in range(n1):
        pt = start
        for _ in range(n2):
            phi.append(pt)
            pt = rho[pt]
        start = lam[start]
    if sorted(phi) != list(range(n)):
        return None
    for a, i in itertools.product(range(n1), range(n2)):
        d = (i - a * r) % n2
        row = sigma[phi[a * n2 + i]]
        for b, j in itertools.product(range(n1), range(n2)):
            if phi[(b + d) % n1 * n2 + (j + r * d + 1) % n2] != row[phi[b * n2 + j]]:
                return None
    return tuple(phi)


def pi_isotope_by_ordered_pairs(sigma, pi):
    """The rows sigma_x . pi, or the first ordered pair (x, y), in
    lexicographic order, where sigma_{pi(y)} pi sigma_x and
    sigma_{pi(x)} pi sigma_y differ. Every ordered pair is tested with
    fresh perm.compose calls: the condition is not assumed symmetric."""
    n = len(sigma)
    for x in range(n):
        for y in range(n):
            lhs = perm.compose(sigma[pi[y]], perm.compose(pi, sigma[x]))
            rhs = perm.compose(sigma[pi[x]], perm.compose(pi, sigma[y]))
            if lhs != rhs:
                return (x, y)
    return tuple(perm.compose(row, pi) for row in sigma)


def rows_shared_iff_equal(sigma, table=None) -> bool:
    """True iff sigma[x] is sigma[y] exactly when rows x and y of table
    (by default sigma itself) are equal."""
    if table is None:
        table = sigma
    return all(
        (sigma[x] is sigma[y]) == (list(table[x]) == list(table[y]))
        for x, y in itertools.product(range(len(sigma)), repeat=2)
    )


def class_ids_by_whole_rows(rows):
    """Class id of every row, numbered by first occurrence, from one dict
    keyed by whole rows."""
    first = {}
    return [first.setdefault(tuple(row), len(first)) for row in rows]


class UnhashableRow(tuple):
    """A row that fails the test running when anything hashes it."""

    def __hash__(self):
        raise AssertionError("a row was hashed")


def swap_corrupted(rng: random.Random, table):
    """Copy of the table with two entries of one row swapped; rows stay bijective."""
    bad = [list(row) for row in table]
    x = rng.randrange(len(bad))
    j, k = rng.sample(range(len(bad)), 2)
    bad[x][j], bad[x][k] = bad[x][k], bad[x][j]
    return bad


def aut_by_filtering(sigma):
    """All relabelings fixing the table, found by scanning n! permutations."""
    n = len(sigma)
    out = []
    for g in itertools.permutations(range(n)):
        if relabel(sigma, g) == [list(row) for row in sigma]:
            out.append(g)
    return out


def cycle_generators(rng: random.Random, lengths, fixed: int):
    """One single-cycle permutation per length; the cycles are disjoint, on
    randomly chosen points of sum(lengths) + fixed, the rest fixed by all."""
    n = sum(lengths) + fixed
    points = rng.sample(range(n), n)
    gens = []
    for length in lengths:
        cycle, points = points[:length], points[length:]
        g = list(range(n))
        for i, x in enumerate(cycle):
            g[x] = cycle[(i + 1) % length]
        gens.append(tuple(g))
    return gens


def shift_generators(rng: random.Random, orbit_shapes, fixed: int):
    """Commuting generators with one orbit per shape, plus fixed points.

    The orbit of shape (m1, ..., mk) is Z_m1 x ... x Z_mk, acted on by
    translation; generator j adds 1 to coordinate j in every orbit that has
    one, so a generator moves several orbits at once. The points of all
    orbits and the fixed points are placed at random.
    """
    points = [
        (b, c)
        for b, shape in enumerate(orbit_shapes)
        for c in itertools.product(*map(range, shape))
    ]
    n = len(points) + fixed
    label = dict(zip(points, rng.sample(range(n), n)))
    gens = []
    for j in range(max(map(len, orbit_shapes))):
        g = list(range(n))
        for (b, c), x in label.items():
            shape = orbit_shapes[b]
            if j < len(shape):
                moved = (*c[:j], (c[j] + 1) % shape[j], *c[j + 1:])
                g[x] = label[(b, moved)]
        gens.append(tuple(g))
    return gens


def invariant_factors_of_cycles(lengths):
    """Invariant factors of the group that disjoint cycles of these lengths
    generate, the product of cyclic groups of these orders: the gcd/lcm rule
    replaces each pair by (gcd, lcm) until each divides the next."""
    fs = list(lengths)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = math.gcd(fs[i], fs[j]), math.lcm(fs[i], fs[j])
    return tuple(f for f in fs if f > 1)


def random_bijective_table(rng: random.Random, n: int):
    table = []
    for _ in range(n):
        row = list(range(n))
        rng.shuffle(row)
        table.append(row)
    return table


def random_solution_tables(rng: random.Random, n: int, count: int):
    """Rejection-sample `count` tables accepted by the oracle."""
    out = []
    while len(out) < count:
        t = random_bijective_table(rng, n)
        if oracle_is_solution(t):
            out.append(t)
    return out


def delta(p, a: int, i: int) -> int:
    """The row invariant d = i - a*r mod n2 of the point (a, i) of C(n1, n2, r)."""
    _, n2, r = p
    return (i - a * r) % n2


def is_transitive(group) -> bool:
    """One orbit: the images g(0) over the elements reach every point."""
    return {g[0] for g in group.elements} == set(range(group.degree))


def is_regular(group) -> bool:
    """Sharply transitive: exactly one element sends 0 to each point (in a
    transitive group every point stabilizer is conjugate to that of 0)."""
    return sorted(g[0] for g in group.elements) == list(range(group.degree))


def power(p, k: int):
    """p composed with itself k times (the identity for k = 0); a negative
    k takes the (-k)-th power of p's inverse."""
    if k < 0:
        inv = [0] * len(p)
        for x, y in enumerate(p):
            inv[y] = x
        p, k = inv, -k
    result = tuple(range(len(p)))
    for _ in range(k):
        result = tuple(p[y] for y in result)
    return result


def element_order(g) -> int:
    """The lcm of the lengths of all cycles of g, every point walked."""
    lengths, seen = [], set()
    for start in range(len(g)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = g[x]
            length += 1
        lengths.append(length)
    return math.lcm(*lengths)


def is_cyclic(group) -> bool:
    """Some element's order is the group order."""
    return any(element_order(g) == len(group.elements) for g in group.elements)


def invariant_factors_by_orders(group):
    """The chain d1 | ... | dt (all >= 2) read off Counter(element orders).

    Z_d1 x ... x Z_dt has prod gcd(m, d_i) elements of order dividing m.
    The element orders fix a finite abelian group up to isomorphism, so
    exactly one chain whose product is |G| matches those counts for every
    m dividing |G|; every such chain is tried.
    """
    counts = Counter(element_order(g) for g in group.elements)
    size = len(group.elements)
    ms = [m for m in range(1, size + 1) if size % m == 0]
    dividing = {m: sum(c for o, c in counts.items() if m % o == 0) for m in ms}

    def chains(rest, least):
        if rest == 1:
            yield ()
        for d in ms:
            if d >= 2 and d % least == 0 and rest % d == 0:
                for tail in chains(rest // d, d):
                    yield (d, *tail)

    (fit,) = [
        c for c in chains(size, 1)
        if all(math.prod(math.gcd(m, d) for d in c) == dividing[m] for m in ms)
    ]
    return fit


def forbid_group_closure(monkeypatch):
    """Replace group_closure at every ybe_lab module that binds it, so any
    library call that builds a group by closure fails the test."""

    def no_closure(*args, **kwargs):
        raise AssertionError("a permutation group was built")

    original = perm.group_closure
    for name, module in list(sys.modules.items()):
        if name == "ybe_lab" or name.startswith("ybe_lab."):
            if getattr(module, "group_closure", None) is original:
                monkeypatch.setattr(module, "group_closure", no_closure)
