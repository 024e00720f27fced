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
193, 2005). verify_solution runs both characterizations and reports each
flag, so the two routes cross-check each other on every call.

Both routes are O(n^2) compositions of rows. For involutive r the braid
relation has the composition form

    sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)}    for all x, y

(the same two references), whose two sides are the first components of
the two triple composites. The braid route accepts on that identity.
Where it first fails, at (x0, y0) and point z0, the braid relation
fails at (x0, y0, z0), so the scalar scan that names the
lexicographically first witness stops by that triple. Up to 256 points
rows are composed as bytes through bytes.translate, above that through
operator.itemgetter (_composer). tests/test_core.py checks the braid
route against a scalar reference, exhaustively on 4 points under -m slow.

solution_from_table checks the axioms on tables from outside the library
(CLI files, direct calls). It accepts through the cycle route alone and
builds the full two-route report only to reject;
test_solution_from_table_agrees_with_verify checks that both decide
alike. Tables the library builds are solutions by a theorem and become
Solutions through trusted_solution, which checks nothing;
tests/test_construct.py, test_retract.py and test_classify.py verify
them (the docstrings of build_c, retract and exhaustive_enumerate name
the tests).

Each public entry point checks the shape and entries of a raw table once
(_rows) and then runs the private kernels (_tau, _cycle, _braid) on the
checked rows.
"""

import json
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
    """Outcome of every axiom check; first_failure is a braid or cycle witness triple."""

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


def _rows(s) -> tuple[Perm, ...]:
    """Accept a Solution or a raw table; return the sigma rows as tuples."""
    if isinstance(s, Solution):
        return s.sigma
    rows = tuple(tuple(row) for row in s)
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    for row in rows:
        if len(row) != n:
            raise ValueError("table is not square")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"entry {v!r} outside [0, {n})")
    return rows


def _tau(rows) -> tuple[Perm, ...]:
    n = len(rows)
    inv = [inverse(row) for row in rows]
    return tuple(
        tuple(inv[rows[x][y]][x] for x in range(n)) for y in range(n)
    )


def tau_from_sigma(s) -> tuple[Perm, ...]:
    """Derived right action: tau[y][x] = sigma^{-1}_{sigma_x(y)}(x).

    Rows of sigma must be bijective. This is the unique table making
    (sigma, tau) involutive.
    """
    return _tau(_rows(s))


def trusted_solution(rows) -> Solution:
    """Solution on rows the library built itself, with tau derived.

    Nothing is checked: the rows must be a tuple of bijective row tuples
    forming a solution by a theorem (see the module docstring).
    """
    return Solution(len(rows), rows, _tau(rows))


def check_cycle_condition(s) -> tuple[bool, tuple[int, int, int] | None]:
    """Evaluate the cycle condition on all triples.

    Returns (True, None) or (False, witness) with the lexicographically
    first failing (a, b, c). Rows must be bijective. The two sides are
    compared as whole rows, one composition pair for each a < b, so the
    cost is O(n^2) compositions (bytes.translate up to 256 points).
    """
    return _cycle(_rows(s))


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


def _cycle(rows) -> tuple[bool, tuple[int, int, int] | None]:
    n = len(rows)
    inv = [inverse(row) for row in rows]
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


def _diagonal(rows) -> Perm:
    # T(a) = sigma^{-1}_a(a), not checked for bijectivity
    return tuple(row.index(a) for a, row in enumerate(rows))


def t_map(s) -> Perm:
    """Diagonal map T(a) = sigma^{-1}_a(a); raises NotNonDegenerate if not bijective.

    Rows must be bijective.
    """
    img = _diagonal(_rows(s))
    if not is_perm(img):
        raise NotNonDegenerate("diagonal map is not a bijection")
    return img


def _braid(rows, tau) -> tuple[int, int, int] | None:
    # the composition form of the braid relation (module docstring); the
    # scalar scan returns by the first triple where the identity fails
    n = len(rows)
    left, right = _composer(n)
    table = [left(row) for row in rows]
    # after[y](table[x]) = sigma_x . sigma_y
    after = [right(row) for row in rows]
    for x in range(n):
        row_x, table_x = rows[x], table[x]
        for y in range(n):
            if after[y](table_x) != after[tau[y][x]](table[row_x[y]]):
                return _braid_witness(rows, tau)
    return None


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


def _report(rows, tau) -> VerifyReport:
    # both routes on bijective rows with their derived tau
    cycle_ok, cycle_wit = _cycle(rows)
    braid_wit = _braid(rows, tau)
    first = braid_wit if braid_wit is not None else cycle_wit
    return VerifyReport(
        True, cycle_ok, is_perm(_diagonal(rows)), braid_wit is None, True, first
    )


def verify_solution(s) -> VerifyReport:
    """Run both verification routes on a raw table (or Solution).

    Route one derives tau and checks the braid relation of r, which is
    involutive by construction of tau, in its composition form
    sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)}
    (Etingof-Schedler-Soloviev 1999; Rump 2005); route two checks the
    cycle condition and bijectivity of the diagonal map. Each route is
    O(n^2) row compositions, as bytes up to 256 points. Only when the
    identity fails are triples scanned, up to the first point where it
    fails, for the lexicographically first braid witness. When rows are
    not bijective nothing else is checkable and all flags are reported
    False.
    """
    rows = _rows(s)
    if not all(is_perm(row) for row in rows):
        return VerifyReport(False, False, False, False, False, None)
    return _report(rows, _tau(rows))


def solution_from_table(n: int, sigma) -> Solution:
    """Validate a sigma table and build the Solution.

    Accepts when the rows are bijective, the cycle condition holds and the
    diagonal map T is a bijection, which for the derived tau is equivalent
    to the braid relation plus involutivity. Raises NotBijectiveRow for
    the first non-bijective row, and AxiomViolation carrying the full
    two-route report of verify_solution when any axiom fails.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("carrier size must be a positive integer")
    rows = _rows(sigma)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    for x, row in enumerate(rows):
        if not is_perm(row):
            raise NotBijectiveRow(x)
    if not (_cycle(rows)[0] and is_perm(_diagonal(rows))):
        raise AxiomViolation(_report(rows, _tau(rows)))
    return trusted_solution(rows)


def solution_to_json(s: Solution) -> str:
    """Serialize as {"n": ..., "sigma": [[...], ...]}; tau is never serialized."""
    return json.dumps(
        {"n": s.n, "sigma": [list(row) for row in s.sigma]},
        separators=(",", ":"),
    )


def table_from_json(text: str) -> tuple[int, list]:
    """Parse solution JSON into (n, sigma): an int "n" and n row lists.

    Raises ValueError, also for JSON nested too deeply to parse; the
    entries are checked by whoever takes the table.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or "n" not in data or "sigma" not in data:
        raise ValueError('expected an object with "n" and "sigma"')
    n, sigma = data["n"], data["sigma"]
    rows_ok = isinstance(sigma, list) and all(isinstance(row, list) for row in sigma)
    if not isinstance(n, int) or not rows_ok or len(sigma) != n:
        raise ValueError("sigma must be an n x n table")
    return n, sigma


def solution_from_json(text: str) -> Solution:
    """Parse and fully validate the JSON form produced by solution_to_json."""
    return solution_from_table(*table_from_json(text))
