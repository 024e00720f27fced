"""Permutation arithmetic and small permutation groups.

Permutations are image tuples: p[i] is the image of i under p. A
PermGroup is its degree, all its elements (sorted) and its point orbits,
so no stabilizer chains are needed, and it keeps no generators.
group_closure computes one by breadth-first closure from generators,
bounded by max_size (SizeLimitExceeded). No library path calls it:
parameter recovery decides transitivity and abelianness of the distinct
rows with check_regular_abelian, which commutes each row with at most
log2 n greedy generators, since a regular abelian group is its own
centralizer; the isomorphism quick-reject and the exhaustive oracle's
filters read orbits and all_commute off the distinct rows; and
aut.automorphism_group builds its groups from the closed form or from
the automorphisms the search yields, stopping past DEFAULT_MAX_CLOSURE
of them. Closure remains public for direct calls, as the tests'
reference, and because the benchmark's tracer wraps it by name.
is_abelian and invariant_factors read group.elements, which must be the
whole group (as group_closure and aut.automorphism_group give it), and
neither loops over pairs of elements. cycle_length walks one cycle: an
abelian group is regular on each orbit, so invariant_factors and
classify's parameter recovery read element orders off it. class_ids
numbers the classes of equal rows, the retraction's classes, for
retract, classify and core's table check, whose ids the cycle scan reads.
precompose turns a permutation into an itemgetter that composes many
others with it in C: for aut's lists of automorphisms, core's cycle scan
above 256 points, all_commute, check_regular_abelian, and is_abelian's
rows read on one orbit.
It is the one place that builds an itemgetter.
"""

import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import DegreeMismatch, NotAbelian, NotIndecomposable, SizeLimitExceeded
from .util import factorize

Perm = tuple[int, ...]

DEFAULT_MAX_CLOSURE = 10**6


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

    Any nonempty index tuple g works alike: f -> (f[g[0]], f[g[1]], ...).
    operator.itemgetter does the work; on one index it would yield a bare
    value, so a single index takes a tuple instead.
    """
    if len(g) == 1:
        return lambda f: (f[g[0]],)
    return itemgetter(*g)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


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


def cycle_length(p: Perm, x: int) -> int:
    """Length of p's cycle through the point x."""
    length, y = 1, p[x]
    while y != x:
        y = p[y]
        length += 1
    return length


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
    e = tuple(range(n))
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
    """True iff the permutations (one degree, at least 1) commute pairwise.

    Degree 1 needs no case of its own: precompose handles one point."""
    perms = list(perms)
    # after[i](q) = q . perms[i]
    after = [precompose(p) for p in perms]
    for i, p in enumerate(perms):
        for j in range(i + 1, len(perms)):
            if after[j](p) != after[i](perms[j]):
                return False
    return True


def check_regular_abelian(n: int, rows) -> None:
    """Raise unless the rows, on {0..n-1}, generate a transitive abelian group.

    Generators S are picked greedily: a row joins only when its image of 0
    lies outside the orbit of 0 under those before it and it commutes with
    them, until that orbit is all of X = {0..n-1}. Commuting generators of
    a transitive group generate a regular abelian group A, and A is its
    own centralizer in Sym(X) (Dixon-Mortimer, Permutation Groups, 1996,
    4.2), so every row lies in A iff it commutes with every generator:
    |S| * k row pairs for k rows, where pairwise commutation takes
    k(k-1)/2. Commuting generators act regularly on the orbit of 0, so
    each one at least doubles it, and |S| <= log2 n. A joining generator
    commutes with those before it, so its images of the orbit close it
    anew: O(n) point images in all.

    If the orbit stops short of X, or a row fails to commute, the group is
    not both transitive and abelian: in a regular group a row whose image
    of 0 is in <S>(0) lies in <S>, so the rows skipped would add no point.
    The orbits of all the rows then choose the error: NotIndecomposable
    when there are several, NotAbelian otherwise.
    """
    seen = [False] * n
    seen[0] = True
    orbit = [0]
    gens = []  # (g, after) with after(q) = q . g
    rest = []
    for g in rows:
        if seen[g[0]]:
            rest.append(g)
            continue
        after = precompose(g)
        if any(a(g) != after(h) for h, a in gens):
            break
        gens.append((g, after))
        # the orbit is closed under the earlier generators, which commute
        # with g, so g alone moves it on: the loop reads the points it adds
        for x in orbit:
            y = g[x]
            if not seen[y]:
                seen[y] = True
                orbit.append(y)
    else:
        if len(orbit) == n and all(
            all(a(row) == after(h) for h, a in gens)
            for row, after in zip(rest, map(precompose, rest))
        ):
            return
    if len(orbits(n, rows)) != 1:
        raise NotIndecomposable("permutation group is not transitive")
    raise NotAbelian("permutation group is not abelian")


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
            rows = list(map(precompose(orbit), rows))
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

    An abelian group acts regularly on each of its orbits, so all cycles
    of g in one orbit have one length, and the order of g is the lcm of
    its cycle lengths through the least points of the orbits of size > 1.
    Each element walks one cycle per such orbit, at most the group's
    exponent in steps, in place of every point of the carrier.
    """
    if not is_abelian(group):
        raise NotAbelian("invariant factors need an abelian group")
    starts = [orbit[0] for orbit in group.orbit_partition if len(orbit) > 1]
    counts = Counter(
        math.lcm(*[cycle_length(g, x) for x in starts]) for g in group.elements
    )
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
