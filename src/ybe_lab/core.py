"""Finite involutive Yang-Baxter solutions stored as sigma tables.

A solution on X = {0..n-1} is an n x n table with sigma[x][y] = sigma_x(y)
whose rows are bijections, such that r(x, y) = (sigma_x(y), tau_y(x))
satisfies the braid relation and r . r = id. The right action tau is not
free data: tau_y(x) = sigma^{-1}_{sigma_x(y)}(x), and that derived table
is cached on the Solution. Involutivity holds by construction of tau on
every table with bijective rows: if r(x, y) = (u, v), then sigma_u(v) = x
and tau_v(u) = sigma^{-1}_x(u) = y. So it is never scanned, and a report
on bijective rows always sets involutive.

Equivalently, sigma satisfies the cycle condition

    sigma^{-1}_{sigma^{-1}_a(b)} sigma^{-1}_a = sigma^{-1}_{sigma^{-1}_b(a)} sigma^{-1}_b

for all a, b, with the diagonal map T(a) = sigma^{-1}_a(a) a bijection
(Etingof-Schedler-Soloviev, Duke Math. J. 100, 1999; Rump, Adv. Math.
193, 2005). For involutive r the braid relation has the composition form
sigma_x sigma_y = sigma_u sigma_v for all x, y, with u = sigma_x(y) and
v = tau_y(x) = sigma^{-1}_u(x). Inverted and put at (a, b) = (x, u), this
is the cycle condition at (a, b), and (x, y) -> (x, sigma_x(y)) is a
bijection of X x X. So one O(n^2) scan of row compositions (_cycle, as
bytes.translate up to 256 points, operator.itemgetter above) sets both
flags of a report. Only a rejected table builds tau, for the scalar scan
that names the first triple where the braid relation fails; it stops by
(x0, y0, z0) where the composition form first fails at (x0, y0), point
z0. The tests own the cross-check (tests/test_core.py):
test_braid_composition_is_the_cycle_condition_reindexed per pair, and
test_braid_route_matches_scalar_reference (all 4-point tables under
-m slow) against the scalar references in tests/helpers.py.

solution_from_table checks the axioms on tables from outside the library
(CLI files, direct calls) through the same report as verify_solution;
test_solution_from_table_agrees_with_verify checks that both decide
alike. Tables the library builds are solutions by a theorem and become
Solutions through trusted_solution, which checks nothing;
tests/test_construct.py, test_retract.py and test_classify.py verify
them (the docstrings of build_c, retract and exhaustive_enumerate name
the tests).

_rows is the only validator of a table, and a Solution's rows are checked
like any table's. In one pass it checks the shape, the entries and the
bijectivity of every row and inverts each row once; every kernel (_tau,
_cycle, _diagonal) then works on those rows and their shared inverses.
"""

import json
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .errors import AxiomViolation, NotBijectiveRow, NotNonDegenerate
from .perm import Perm, inverse, is_perm


@dataclass(frozen=True)
class Solution:
    """Immutable solution; sigma[x][y] = sigma_x(y), tau[y][x] = tau_y(x).

    Outside tables go through solution_from_table, which checks the axioms.
    """

    n: int
    sigma: tuple[Perm, ...]
    tau: tuple[Perm, ...]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of every axiom check.

    On bijective rows the braid relation is the cycle condition reindexed
    by (a, b) = (x, sigma_x(y)) (module docstring), so one scan sets both
    flags; first_failure is the lexicographically first triple where the
    braid relation fails, or None.
    """

    bijective_rows: bool
    cycle_condition: bool
    non_degenerate: bool
    braid: bool
    involutive: bool
    first_failure: tuple[int, int, int] | None

    @property
    def ok(self) -> bool:
        return (
            self.bijective_rows
            and self.cycle_condition
            and self.non_degenerate
            and self.braid
            and self.involutive
        )


_NO_N = object()  # _rows takes n from the table itself


def _check_n(n, count) -> None:
    """The one rule for n: an int, not a bool, equal to the number of rows."""
    if isinstance(n, bool) or not isinstance(n, int) or n != count:
        raise ValueError(f"n must be an int equal to the row count {count}")


def _rows(s, n=_NO_N) -> tuple[tuple[Perm, ...], list[Perm]]:
    """The one validating pass: (rows, inv) with inv[x] the inverse of sigma_x.

    A Solution's rows are checked like any table's. Table and rows must be
    sequences (collections.abc.Sequence: no sets, dicts or generators), n
    (if given) must pass _check_n, and entries follow is_perm's rule in
    [0, n); the first bad shape or entry anywhere raises ValueError,
    and only then does the first row that repeats an entry raise NotBijectiveRow.
    """
    if isinstance(s, Solution):
        s = s.sigma
    if not isinstance(s, Sequence) or not all(isinstance(row, Sequence) for row in s):
        raise ValueError("sigma must be a sequence of rows")
    rows = tuple(tuple(row) for row in s)
    if n is not _NO_N:
        _check_n(n, len(rows))
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    points = set(range(n))
    inv = []
    repeating = None
    for x, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("table is not square")
        # exact ints filling range(n) form a bijective row; the type test
        # comes first, since True and 1.0 equal 1 inside a set
        bijective = set(map(type, row)) == {int} and set(row) == points
        if not bijective:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise ValueError(f"entry {v!r} outside [0, {n})")
            bijective = len(set(row)) == n
        if repeating is None:
            if bijective:
                inv.append(inverse(row))
            else:
                repeating = x
    if repeating is not None:
        raise NotBijectiveRow(repeating)
    return rows, inv


def _tau(rows, inv) -> tuple[Perm, ...]:
    # tau_y(x) = inv[sigma_x(y)][x], read down column y of sigma
    return tuple([
        tuple([inv[v][x] for x, v in enumerate(column)]) for column in zip(*rows)
    ])


def tau_from_sigma(s) -> tuple[Perm, ...]:
    """Derived right action: tau[y][x] = sigma^{-1}_{sigma_x(y)}(x).

    This is the unique table making (sigma, tau) involutive. Raises
    NotBijectiveRow for the first row that is not a bijection.
    """
    return _tau(*_rows(s))


def trusted_solution(rows) -> Solution:
    """Solution on rows the library built itself, with tau derived.

    Nothing is checked: the rows must be a tuple of bijective row tuples
    forming a solution by a theorem (see the module docstring).
    """
    return Solution(len(rows), rows, _tau(rows, [inverse(row) for row in rows]))


def check_cycle_condition(s) -> tuple[bool, tuple[int, int, int] | None]:
    """Evaluate the cycle condition on all triples.

    Returns (True, None) or (False, witness) with the lexicographically
    first failing (a, b, c). Raises NotBijectiveRow for the first row that
    is not a bijection. The two sides are compared as whole rows, one
    composition pair for each a < b, so the cost is O(n^2) compositions
    (bytes.translate up to 256 points).
    """
    return _cycle(*_rows(s))


def _composer(n):
    """Encoders (left, right) for composing permutations of range(n) in C.

    right(g)(left(f)) is f . g (x -> f(g(x))) as a sequence of ints, and
    two composites compare equal exactly when they are the same map. Up to
    256 points a row is bytes and composition is bytes.translate, with the
    left factor padded to a 256-byte table; above that it is itemgetter.
    """
    if n <= 256:
        pad = bytes(256 - n)
        return (lambda f: bytes(f) + pad), (lambda g: bytes(g).translate)
    return tuple, (lambda g: itemgetter(*g))


def _cycle(rows, inv) -> tuple[bool, tuple[int, int, int] | None]:
    n = len(rows)
    left, right = _composer(n)
    table = [left(qa) for qa in inv]
    # after[a](table[i]) = sigma^{-1}_i . sigma^{-1}_a
    after = [right(qa) for qa in inv]
    # The condition at (a, b, c) is the condition at (b, a, c) with its
    # sides swapped, and a failure with a > b is also one at the smaller
    # triple (b, a, c), so scanning a < b finds the same first witness.
    for a in range(n - 1):
        qa, after_a = inv[a], after[a]
        for b in range(a + 1, n):
            lhs = after_a(table[qa[b]])
            rhs = after[b](table[inv[b][a]])
            if lhs != rhs:
                c = next(c for c in range(n) if lhs[c] != rhs[c])
                return False, (a, b, c)
    return True, None


def _diagonal(inv) -> Perm | None:
    # T(a) = sigma^{-1}_a(a), or None when T is not a bijection
    img = tuple(inv[a][a] for a in range(len(inv)))
    return img if is_perm(img) else None


def t_map(s) -> Perm:
    """Diagonal map T(a) = sigma^{-1}_a(a); raises NotNonDegenerate if not bijective.

    Raises NotBijectiveRow for the first row that is not a bijection.
    """
    img = _diagonal(_rows(s)[1])
    if img is None:
        raise NotNonDegenerate("diagonal map is not a bijection")
    return img


def _braid_witness(rows, tau) -> tuple[int, int, int] | None:
    # r(x,y) = (rows[x][y], tau[y][x]); compare the two triple composites
    # (id x r)(r x id)(id x r) and (r x id)(id x r)(r x id), rightmost
    # factor applied first. Witness is the lexicographically first failure.
    n = len(rows)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                u, v = rows[y][z], tau[z][y]
                p, q = rows[x][u], tau[u][x]
                lhs = (p, rows[q][v], tau[v][q])

                a, b = rows[x][y], tau[y][x]
                c, d = rows[b][z], tau[z][b]
                rhs = (rows[a][c], tau[c][a], d)
                if lhs != rhs:
                    return (x, y, z)
    return None


def _report(rows, inv) -> VerifyReport:
    # the one decision on bijective rows: the cycle scan decides the braid
    # relation too (module docstring), and the scalar scan runs only to
    # name the witness of a rejected table
    ok = _cycle(rows, inv)[0]
    wit = None if ok else _braid_witness(rows, _tau(rows, inv))
    return VerifyReport(True, ok, _diagonal(inv) is not None, ok, True, wit)


def verify_solution(s) -> VerifyReport:
    """Check the axioms on a table and report each flag (a Solution's rows too).

    One cycle scan of O(n^2) row compositions sets cycle_condition and
    braid: with the derived tau, the braid relation's composition form
    sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} is the cycle
    condition reindexed by (a, b) = (x, sigma_x(y)) (module docstring).
    A tau table is built only when the scan fails, to find the
    lexicographically first braid witness. When rows are not bijective
    nothing else is checkable and all flags are reported False.
    """
    try:
        rows, inv = _rows(s)
    except NotBijectiveRow:
        return VerifyReport(False, False, False, False, False, None)
    return _report(rows, inv)


def solution_from_table(n: int, sigma) -> Solution:
    """Validate a sigma table and build the Solution.

    Accepts when the rows are bijective, the cycle condition holds and the
    diagonal map T is a bijection, which for the derived tau is equivalent
    to the braid relation plus involutivity; the decision is the report
    of verify_solution, from one cycle scan. Raises ValueError for a bad
    table or n (_check_n), NotBijectiveRow for the first non-bijective
    row, and AxiomViolation carrying that report when any axiom fails.
    """
    rows, inv = _rows(sigma, n)
    report = _report(rows, inv)
    if not report.ok:
        raise AxiomViolation(report)
    return Solution(n, rows, _tau(rows, inv))


def solution_to_json(s: Solution) -> str:
    """Serialize as {"n": ..., "sigma": [[...], ...]}; tau is never serialized."""
    return json.dumps(
        {"n": s.n, "sigma": [list(row) for row in s.sigma]},
        separators=(",", ":"),
    )


def table_from_json(text: str) -> tuple[int, list]:
    """Parse solution JSON into (n, sigma): an object with "n" and a list "sigma".

    Checks only what JSON adds, n under _check_n; whoever takes the table
    checks its rows. Raises ValueError, also for JSON nested too deeply.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("sigma"), list):
        raise ValueError('expected an object with "n" and a list "sigma"')
    _check_n(data.get("n"), len(data["sigma"]))
    return data["n"], data["sigma"]


def solution_from_json(text: str) -> Solution:
    """Parse and fully validate the JSON form produced by solution_to_json."""
    return solution_from_table(*table_from_json(text))
