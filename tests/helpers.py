"""Test oracles written independently of the library internals.

Everything here recomputes definitions from scratch on plain lists and
dicts so that library results are checked against a second code path,
not against themselves. The one exception is forbid_group_closure, a
guard that makes any group closure inside the library fail a test.
"""

import math
import random
import sys

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


def _pair_map(table):
    """The map r(x, y) = (sigma_x(y), tau_y(x)) as a dict, with tau derived
    from sigma so that r is involutive; rows must be bijective."""
    n = len(table)
    # inv[x][v] = y  with table[x][y] = v
    inv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            inv[x][v] = y
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


def oracle_braid_witness(table):
    """First (x, y, z) where the braid relation of r fails, or None.

    Rows must be bijective. Applies r step by step to every triple, in
    lexicographic order, and compares r23 r12 r23 with r12 r23 r12.
    """
    n = len(table)
    r = _pair_map(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                b, c = r[(y, z)]
                a, b2 = r[(x, b)]
                c2, d = r[(b2, c)]
                lhs = (a, c2, d)
                e, f = r[(x, y)]
                g, h = r[(f, z)]
                i, j = r[(e, g)]
                rhs = (i, j, h)
                if lhs != rhs:
                    return (x, y, z)
    return None


def oracle_cycle_witness(table):
    """First (a, b, c) failing the cycle condition, or None."""
    n = len(table)
    inv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            inv[x][v] = y
    for a in range(n):
        for b in range(n):
            for c in range(n):
                u = inv[a][b]
                v = inv[b][a]
                if inv[u][inv[a][c]] != inv[v][inv[b][c]]:
                    return (a, b, c)
    return None


def relabel(sigma, g):
    """Conjugate table: new row at g(x) is g . sigma_x . g^{-1}."""
    n = len(sigma)
    ginv = [0] * n
    for i, v in enumerate(g):
        ginv[v] = i
    return [[g[sigma[ginv[x]][ginv[y]]] for y in range(n)] for x in range(n)]


def swap_corrupted(rng: random.Random, table):
    """Copy of the table with two entries of one row swapped; rows stay bijective."""
    bad = [list(row) for row in table]
    x = rng.randrange(len(bad))
    j, k = rng.sample(range(len(bad)), 2)
    bad[x][j], bad[x][k] = bad[x][k], bad[x][j]
    return bad


def aut_by_filtering(sigma):
    """All relabelings fixing the table, found by scanning n! permutations."""
    import itertools

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


def is_cyclic(group) -> bool:
    """Some element's order, the lcm of its cycle lengths, is the group order."""
    for g in group.elements:
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
        if math.lcm(*lengths) == len(group.elements):
            return True
    return False


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
