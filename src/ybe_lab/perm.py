"""Permutation arithmetic and small permutation groups.

Permutations are image tuples: p[i] is the image of i under p. A
PermGroup is its degree, all its elements (sorted) and its point orbits,
so no stabilizer chains are needed, and it keeps no generators.
group_closure computes one by breadth-first closure from generators,
bounded by max_size (SizeLimitExceeded). No library path calls it:
parameter recovery, the isomorphism quick-reject and the exhaustive
oracle's filters read orbits and all_commute off the distinct rows, and
aut.automorphism_group builds its groups from the closed form or from
the automorphisms the search yields, stopping past DEFAULT_MAX_CLOSURE
of them. Closure remains public for direct calls, as the tests'
reference, and because the benchmark's tracer wraps it by name.
is_abelian and invariant_factors read group.elements, which must be the
whole group (as group_closure and aut.automorphism_group give it), and
neither loops over pairs of elements. class_ids numbers the classes of
equal rows, the retraction's classes, for retract and core's cycle scan.
precompose turns a permutation into an itemgetter that composes many
others with it in C, for classify's certificate and automorphism work.
"""

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import DegreeMismatch, NotAbelian, SizeLimitExceeded
from .util import factorize

Perm = tuple[int, ...]

DEFAULT_MAX_CLOSURE = 10**6


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(img) -> bool:
    """True iff img permutes {0..n-1}: int entries, never bools (core._rows's rule)."""
    n = len(img)
    seen = [False] * n
    for v in img:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n or seen[v]:
            return False
        seen[v] = True
    return True


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p compose q)(i) = p[q[i]]."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(p[v] for v in q)


def precompose(g: Perm):
    """The map f -> compose(f, g) for f of g's degree, built once, run in C.

    operator.itemgetter does the work; on one point it would yield a bare
    value, so degree 1 takes a tuple instead.
    """
    if len(g) == 1:
        return lambda f: (f[g[0]],)
    return itemgetter(*g)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def power(p: Perm, k: int) -> Perm:
    """k-th compositional power; negative k means powers of the inverse."""
    if k < 0:
        p, k = inverse(p), -k
    result = identity(len(p))
    while k:
        if k & 1:
            result = compose(result, p)
        p = compose(p, p)
        k >>= 1
    return result


def order(p: Perm) -> int:
    """Multiplicative order: lcm of the cycle lengths."""
    n = len(p)
    seen = [False] * n
    result = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        result = math.lcm(result, length)
    return result


def class_ids(rows) -> list[int]:
    """Id of every row's class of equal rows, numbered by first occurrence."""
    class_of: dict = {}
    return [class_of.setdefault(row, len(class_of)) for row in rows]


@dataclass(frozen=True)
class PermGroup:
    """A concrete permutation group: all elements, plus its point orbits."""

    degree: int
    elements: tuple[Perm, ...]
    orbit_partition: tuple[tuple[int, ...], ...]


def orbits(n: int, gens) -> tuple[tuple[int, ...], ...]:
    """Point orbits of the group generated by gens, each sorted, by least point."""
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        parts.append(tuple(sorted(comp)))
    return tuple(parts)


def group_closure(gens, max_size: int = DEFAULT_MAX_CLOSURE) -> PermGroup:
    """Close a nonempty generator list under composition.

    Exceeding max_size elements raises SizeLimitExceeded before memory does.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        raise ValueError("at least one generator required")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise DegreeMismatch("generators act on different carriers")
        if not is_perm(g):
            raise ValueError(f"generator {g} is not a permutation")
    e = identity(n)
    elements = {e}
    frontier = [e]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                p = compose(g, h)
                if p not in elements:
                    if len(elements) >= max_size:
                        raise SizeLimitExceeded(
                            f"closure exceeds {max_size} elements"
                        )
                    elements.add(p)
                    new.append(p)
        frontier = new
    return PermGroup(n, tuple(sorted(elements)), orbits(n, gens))


def all_commute(perms) -> bool:
    """True iff the permutations (all of one degree) commute pairwise."""
    perms = list(perms)
    if not perms or len(perms[0]) < 2:
        return True
    # after[i](q) = q . perms[i], a tuple since the degree is at least 2
    after = [itemgetter(*p) for p in perms]
    for i, p in enumerate(perms):
        for j in range(i + 1, len(perms)):
            if after[j](p) != after[i](perms[j]):
                return False
    return True


def is_abelian(group: PermGroup) -> bool:
    """True iff the group commutes; elements must be the whole group.

    A transitive abelian group is regular, and a group embeds in the
    product of its actions on its orbits. So at the least point x of each
    orbit, no element may fix x and move another point of the orbit, and
    one element per image of x then stands for the action there.
    O(|G| n + the sum of |orbit|^2), with no loop over pairs of elements.
    """
    for orbit in group.orbit_partition:
        if len(orbit) < 2:
            continue
        x = orbit[0]
        reps = {}
        for g in group.elements:
            if g[x] == x and any(g[y] != y for y in orbit):
                return False
            reps.setdefault(g[x], g)
        # reps[y] sends x to y, so reps[y] . reps[z] sends it to reps[y][z]:
        # the representatives commute iff that matrix on the orbit is symmetric
        rows = [reps[y] for y in orbit]
        if len(orbit) < group.degree:  # read the rows on the orbit alone
            rows = list(map(itemgetter(*orbit), rows))
        if rows != list(zip(*rows)):
            return False
    return True


def invariant_factors(group: PermGroup) -> tuple[int, ...]:
    """Invariant factor decomposition (d1 | d2 | ... | dt, all >= 2).

    elements must be the whole group. For each prime p, the number N(p^k)
    of elements of order dividing p^k satisfies
    N(p^k) / N(p^(k-1)) = p^(e_k), where e_k counts the factors divisible
    by p^k; so the j-th largest factor takes one p from each k with
    e_k > j. The trivial group yields the empty tuple. Raises NotAbelian
    on non-abelian input.
    """
    if not is_abelian(group):
        raise NotAbelian("invariant factors need an abelian group")
    counts = Counter(order(g) for g in group.elements)
    # largest factor first; there are at most log2 |G| of them
    factors = [1] * len(group.elements).bit_length()
    for p, a in factorize(len(group.elements)).items():
        q = below = 1
        for _ in range(a):
            q *= p
            at = below + counts[q]
            ratio, j = at // below, 0
            while ratio > 1:
                factors[j] *= p
                ratio //= p
                j += 1
            below = at
    return tuple(f for f in reversed(factors) if f > 1)
