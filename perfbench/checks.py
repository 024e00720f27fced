"""Independent output checker for the benchmark.

Nothing here imports ybe_lab. Every expected value is recomputed from the
definitions on plain lists: the README's closed form for C(n1, n2, r), a
closed-form list of valid triples, witness triples re-evaluated on the
pair map, the published class counts, and brute-force canonical forms for
tables of at most five points. Each check returns None when the output is
right and a one-line reason otherwise.
"""

import itertools
import json
import math

# Involutive solutions on 1..4 points up to isomorphism
# (Etingof-Schedler-Soloviev 1999; OEIS A290887).
PUBLISHED_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23}


def closed_form(n1, n2, r):
    """sigma table of C(n1, n2, r) on Z_n1 x Z_n2, (a, i) -> a*n2 + i.

    sigma_(a,i)((b,j)) = (b + d mod n1, j + r*d + 1 mod n2), d = i - a*r mod n2.
    """
    table = []
    for a in range(n1):
        for i in range(n2):
            d = (i - a * r) % n2
            shift = (r * d + 1) % n2
            table.append(
                [((b + d) % n1) * n2 + (j + shift) % n2 for b in range(n1) for j in range(n2)]
            )
    return table


def nonabelian_witness(m):
    """The 2m-point level-2 solution with non-abelian permutation group:
    sigma_(a,i)((b,j)) = (i - b mod m, 1 - j), flattened by (a, i) -> 2a + i."""
    return [
        [2 * ((i - b) % m) + (1 - j) for b in range(m) for j in range(2)]
        for a in range(m)
        for i in range(2)
    ]


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valid_triples(n):
    """All (n1, n2, r) with n1*n2 = n, n1 | n2, 0 <= r < n2/n1, n2 | n1*r^2.

    n2 | n1*r^2 is n | (n1*r)^2, i.e. t | n1*r for t the least integer with
    n | t^2, so the valid r are the multiples of t / gcd(t, n1).
    """
    t = 1
    for p, e in _factor(n).items():
        t *= p ** ((e + 1) // 2)
    out = []
    n1 = 1
    while n1 * n1 <= n:
        if n % (n1 * n1) == 0:
            n2 = n // n1
            step = t // math.gcd(t, n1)
            out.extend((n1, n2, r) for r in range(0, n2 // n1, step))
        n1 += 1
    return out


def relabel(table, g):
    """Conjugate table: the row at g(x) is g . sigma_x . g^-1."""
    n = len(table)
    out = [None] * n
    for x, row in enumerate(table):
        new = [0] * n
        for y, v in enumerate(row):
            new[g[y]] = g[v]
        out[g[x]] = new
    return out


def _inverses(table):
    n = len(table)
    inv = [[0] * n for _ in range(n)]
    for x, row in enumerate(table):
        for y, v in enumerate(row):
            inv[x][v] = y
    return inv


def _rows_bijective(table):
    n = len(table)
    return all(sorted(row) == list(range(n)) for row in table)


def _cycle_fails(table, inv, a, b, c):
    u, v = inv[a][b], inv[b][a]
    return inv[u][inv[a][c]] != inv[v][inv[b][c]]


def _braid_fails(table, inv, x, y, z):
    def r(p, q):
        u = table[p][q]
        return u, inv[u][p]

    b, c = r(y, z)
    a, b2 = r(x, b)
    c2, d = r(b2, c)
    e, f = r(x, y)
    g, h = r(f, z)
    i, j = r(e, g)
    return (a, c2, d) != (i, j, h)


def fails_at(table, triple):
    """True iff the braid relation or the cycle condition fails at triple."""
    inv = _inverses(table)
    return _braid_fails(table, inv, *triple) or _cycle_fails(table, inv, *triple)


def cycle_failure_through(table, x):
    """A triple (x, b, c) failing the cycle condition, or None. O(n^2)."""
    inv = _inverses(table)
    n = len(table)
    for b in range(n):
        if b == x:
            continue
        for c in range(n):
            if _cycle_fails(table, inv, x, b, c):
                return (x, b, c)
    return None


def is_solution(table):
    """Brute force: bijective rows, r . r = id and the braid relation."""
    if not _rows_bijective(table):
        return False
    n = len(table)
    inv = _inverses(table)
    for x in range(n):
        for y in range(n):
            u = table[x][y]
            v = inv[u][x]
            if table[u][v] != x or inv[x][u] != y:
                return False
    return not any(
        _braid_fails(table, inv, x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def canonical(table):
    """Least relabeled table over all n! relabelings (tiny n only)."""
    n = len(table)
    return min(
        tuple(tuple(row) for row in relabel(table, g))
        for g in itertools.permutations(range(n))
    )


def level(table):
    """Multipermutation level by repeated retraction; None if it stalls."""
    steps = 0
    while len(table) > 1:
        classes = {}
        proj = [classes.setdefault(tuple(row), len(classes)) for row in table]
        m = len(classes)
        if m == len(table):
            return None
        quotient = [None] * m
        for x, row in enumerate(table):
            if quotient[proj[x]] is None:
                quotient[proj[x]] = [None] * m
                for y, v in enumerate(row):
                    quotient[proj[x]][proj[y]] = proj[v]
        table = quotient
        steps += 1
    return steps


def row_order(row):
    seen = [False] * len(row)
    result = 1
    for i in range(len(row)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = row[j]
            length += 1
        if length:
            result = math.lcm(result, length)
    return result


def invariant(table):
    """Cheap isomorphism invariant: distinct rows and the row-order multiset."""
    return (
        len(table),
        len({tuple(row) for row in table}),
        tuple(sorted(row_order(row) for row in table)),
    )


def _certificate_ok(src, dst, phi):
    n = len(src)
    if not isinstance(phi, list) or sorted(phi) != list(range(n)):
        return False
    return all(
        phi[src[x][y]] == dst[phi[x]][phi[y]] for x in range(n) for y in range(n)
    )


def _parse(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# --- CLI outputs: each check takes (exit_code, stdout) -------------------


def check_construct(result, triple):
    code, out = result
    if code != 0:
        return f"construct {triple}: exit {code}"
    if _parse(out) != {"n": triple[0] * triple[1], "sigma": closed_form(*triple)}:
        return f"construct {triple}: table differs from the closed form"
    return None


def check_classify(result, triple, table):
    code, out = result
    data = _parse(out)
    if code != 0 or not isinstance(data, dict):
        return f"classify {triple}: exit {code}"
    got = (data.get("n1"), data.get("n2"), data.get("r"))
    if got != tuple(triple):
        return f"classify {triple}: recovered {got}"
    if not _certificate_ok(closed_form(*triple), table, data.get("phi")):
        return f"classify {triple}: certificate fails cell check"
    return None


def check_aut(result, triple):
    code, out = result
    data = _parse(out)
    n1, n2, r = triple
    if code != 0 or not isinstance(data, dict):
        return f"aut {triple}: exit {code}"
    if data.get("order") != n1 * n2:
        return f"aut {triple}: order {data.get('order')} != {n1 * n2}"
    factors = data.get("invariant_factors")
    if data.get("abelian") and math.prod(factors or [1]) != n1 * n2:
        return f"aut {triple}: invariant factors {factors} do not multiply to the order"
    if n1 == 1 and data.get("cyclic") != (not (n2 % 4 == 0 and r % 4 == 2)):
        return f"aut {triple}: cyclic={data.get('cyclic')} breaks the n1 = 1 rule"
    return None


def check_iso(result, table1, table2, isomorphic):
    code, out = result
    data = _parse(out)
    if not isinstance(data, dict):
        return f"iso: exit {code}, unparsable output"
    if not isomorphic:
        if invariant(table1) == invariant(table2):
            return "iso: pair is not provably distinct"
        if code != 1 or data != {"isomorphic": False}:
            return f"iso: distinct members reported isomorphic (exit {code})"
        return None
    if code != 0 or data.get("isomorphic") is not True:
        return f"iso: relabelings of one member reported distinct (exit {code})"
    if not _certificate_ok(table1, table2, data.get("phi")):
        return "iso: certificate fails cell check"
    return None


_VERIFY_KEYS = ("bijective_rows", "cycle_condition", "non_degenerate", "braid", "involutive")


def check_verify(result, table, expect):
    """expect is "ok", "witness" (bijective rows, failing triple) or "nonbijective"."""
    code, out = result
    data = _parse(out)
    if not isinstance(data, dict):
        return f"verify {expect}: exit {code}, unparsable output"
    if expect == "ok":
        want = dict.fromkeys(_VERIFY_KEYS, True) | {"first_failure": None, "ok": True}
        if code != 0 or data != want:
            return f"verify: valid table rejected (exit {code})"
        return None
    if code != 1 or data.get("ok") is not False:
        return f"verify {expect}: corrupted table accepted (exit {code})"
    if expect == "nonbijective":
        want = dict.fromkeys(_VERIFY_KEYS, False) | {"first_failure": None, "ok": False}
        return None if data == want else "verify: non-bijective table misreported"
    wit = data.get("first_failure")
    if data.get("bijective_rows") is not True or not isinstance(wit, list) or len(wit) != 3:
        return "verify: bijective corrupted table without a witness triple"
    if not all(isinstance(v, int) and 0 <= v < len(table) for v in wit):
        return f"verify: witness {wit} outside the carrier"
    if not fails_at(table, wit):
        return f"verify: witness {wit} does not fail"
    return None


# --- library outputs -----------------------------------------------------


def check_recover(params, triple):
    got = (params.n1, params.n2, params.r)
    return None if got == tuple(triple) else f"recover_params {triple}: got {got}"


def check_mpl(value, expected):
    return None if value == expected else f"mpl: got {value}, expected {expected}"


def check_enumerate(params, n):
    got = [(p.n1, p.n2, p.r) for p in params]
    return None if got == valid_triples(n) else f"enumerate_family({n}): wrong triples"


def check_oracle(sols, n, flags):
    """Checks one exhaustive_enumerate result given its filter flags."""
    tables = [[list(row) for row in s.sigma] for s in sols]
    if any(len(t) != n or not is_solution(t) for t in tables):
        return f"exhaustive {n} {flags}: a class is not a solution"
    forms = [canonical(t) for t in tables]
    if len(set(forms)) != len(forms):
        return f"exhaustive {n} {flags}: two classes are isomorphic"
    if "abelian" in flags:
        for t in tables:
            for a, b in itertools.combinations(t, 2):
                if [a[v] for v in b] != [b[v] for v in a]:
                    return f"exhaustive {n} {flags}: a class has non-commuting rows"
    if not flags and len(tables) != PUBLISHED_COUNTS[n]:
        return f"exhaustive {n}: {len(tables)} classes, published {PUBLISHED_COUNTS[n]}"
    if set(flags) == {"indecomposable", "abelian", "mpl2"}:
        members = {canonical(closed_form(*t)) for t in valid_triples(n)}
        if set(forms) != members:
            return f"exhaustive {n} {flags}: classes differ from the family members"
    return None
