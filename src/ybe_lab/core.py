"""Finite involutive Yang-Baxter solutions stored as sigma tables.

A solution on X = {0..n-1} is an n x n table with sigma[x][y] = sigma_x(y)
whose rows are bijections, such that r(x, y) = (sigma_x(y), tau_y(x))
satisfies the braid relation and r . r = id. The right action tau is not
free data: tau_y(x) = sigma^{-1}_{sigma_x(y)}(x). A Solution is its sigma
table alone, and tau_from_sigma is the one place that derives the tau
table, on request. Involutivity holds by construction of tau on every
table with bijective rows: if r(x, y) = (u, v), then sigma_u(v) = x and
tau_v(u) = sigma^{-1}_x(u) = y. So it is never scanned, and a report on
bijective rows always sets involutive.

Equivalently, sigma satisfies the cycle condition

    sigma^{-1}_{sigma^{-1}_a(b)} sigma^{-1}_a = sigma^{-1}_{sigma^{-1}_b(a)} sigma^{-1}_b

for all a, b, with the diagonal map T(a) = sigma^{-1}_a(a) a bijection
(Etingof-Schedler-Soloviev, Duke Math. J. 100, 1999; Rump, Adv. Math.
193, 2005). For involutive r the braid relation has the composition form
sigma_x sigma_y = sigma_u sigma_v for all x, y, with u = sigma_x(y) and
v = tau_y(x) = sigma^{-1}_u(x). Inverted and put at (a, b) = (x, u), this
is the cycle condition at (a, b), and (x, y) -> (x, sigma_x(y)) is a
bijection of X x X. So one cycle scan (_cycle) sets both flags of a
report. Its lhs at (a, b) depends only on the classes of equal rows of
sigma^{-1}_a(b) and a, the retraction's classes (perm.class_ids). For k
classes it composes each ordered pair of class representatives once and
compares int ids of the composites: O(k^2) compositions plus n^2 id
comparisons. A member C(n1, n2, r) has lcm(n1, n2/gcd(r, n2)) classes,
at most sqrt(n) up to 5000 points. The interned ids take up to k^2
composites, so when k^2 > 4n it composes one row pair for each a < b
instead, O(n^2) compositions. Rows compose as bytes.translate up to 256
points and with perm.precompose above. Only a rejected table runs
the scalar scan that names the first triple where the braid relation
fails, reading tau_y(x) = sigma^{-1}_{sigma_x(y)}(x) on demand; it stops
by (x0, y0, z0) where the composition form first fails at (x0, y0),
point z0. The tests own the cross-check (tests/test_core.py):
test_braid_composition_is_the_cycle_condition_reindexed per pair, and
test_braid_route_matches_scalar_reference (all 4-point tables under
-m slow) against the scalar references in tests/helpers.py.

solution_from_table checks the axioms on tables from outside the library
(direct calls, and CLI verify's files) through the same report as
verify_solution; test_solution_from_table_agrees_with_verify checks
that both decide alike. The CLI's classify, iso and aut take a second
route, with no cycle scan: rows_from_table checks the rows, and
classify.explicit_iso_to_c certifies them. A passing certificate is a
bijection phi with sigma_{phi(x)} = phi . m_x . phi^{-1} for every row
m_x of the member C(n1, n2, r); the explicit_iso_to_c docstring argues
this from the gate's checks alone, on any table with bijective rows. So
the table is a relabeled member, and every member is a solution (the
paper, arXiv:2011.00229). Only a table that the certificate refuses
goes on to solution_from_table, which rejects a non-solution as before.
tests/test_cli.py checks that both routes decide alike on every
bijective 3-point table (4-point under -m slow) and on corrupted
members. Tables the library builds are solutions by a theorem and become
Solution(n, rows) directly, with nothing checked;
tests/test_construct.py, test_retract.py and test_classify.py verify
them (the docstrings of build_c, retract and exhaustive_enumerate name
the tests).

_rows is the only validator of a table, a Solution's rows included. It
tests shape and entry types once per distinct row object, in C, then
checks and inverts one row per class of equal rows (perm.class_ids), so
equal rows share one inverse; only a rejected table is scanned entry by
entry. table_from_json hands out the equal rows of solution_to_json's
text as one list, so a loaded table costs O(k n) here for k distinct
rows, and class_ids meets shared tuples, which it decides by identity;
equal rows that are separate objects cost what they always did. _rows
hands out one tuple per class, so a loaded Solution's equal rows are one
object, and solution_to_json encodes each distinct row object once.
Every kernel (tau_from_sigma, _cycle, _diagonal) reads those rows,
inverses and ids. Past the load, a Solution numbers its own classes
once, on first read of Solution.classes, and keeps them: parameter
recovery, the retraction and the level predicates all read that one
partition, so an O(n^2) whole-row pass over equal rows that are separate
tuples (a direct Solution(n, rows)) runs at most once per Solution, and
over a loaded Solution's shared tuples it is O(n).
"""

import json
import re
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain

from .errors import AxiomViolation, NotBijectiveRow
from .perm import Perm, class_ids, inverse, precompose
from .util import is_int


@dataclass(frozen=True)
class Solution:
    """Immutable solution held as its sigma table, sigma[x][y] = sigma_x(y).

    Outside tables go through solution_from_table, which checks the axioms,
    or through rows_from_table and a certificate (module docstring);
    tau_from_sigma derives the right action on request. The fields are n
    and sigma alone. tau is an init-only argument, taken and dropped, so
    the benchmark's positional three-argument call Solution(n, sigma, tau)
    builds the Solution that Solution(n, sigma) builds.

    classes, the id of every row's class of equal rows, is derived from
    sigma on first read and kept. It is not a field, so equality, hashing,
    repr and dataclasses.fields see n and sigma alone; sigma is a tuple of
    tuples, so the kept partition cannot go stale.
    """

    n: int
    sigma: tuple[Perm, ...]
    tau: InitVar[tuple[Perm, ...] | None] = None

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """perm.class_ids of the rows, numbered by first occurrence, once."""
        return tuple(class_ids(self.sigma))


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
    """The one rule for n: an int (util.is_int) equal to the number of rows."""
    if not is_int(n) or n != count:
        raise ValueError(f"n must be an int equal to the row count {count}")


def _rows(s, n=_NO_N) -> tuple[tuple[Perm, ...], list[Perm], list[int]]:
    """The one validating pass: (rows, inv, cid) with inv[x] = sigma_x^{-1}.

    cid is perm.class_ids(rows), and rows holds one tuple per class: rows[x]
    is rows[y] exactly when the two rows are equal. Table and rows must be
    sequences (no sets, dicts or generators), n (if given) must pass
    _check_n, and entries pass util.is_int and lie in [0, n). The first bad
    shape or entry anywhere raises ValueError; only then does the first
    repeating row raise NotBijectiveRow. The shape and type checks run once
    per distinct row object, so rows that are one object (as table_from_json
    hands them out) cost one row, and their tuples are one tuple.
    """
    if isinstance(s, Solution):
        s = s.sigma
    if not isinstance(s, Sequence):
        raise ValueError("sigma must be a sequence of rows")
    # the list holds every row object while they are keyed by id
    table = list(s)
    objects = dict(zip(map(id, table), table))
    if not all(isinstance(row, Sequence) for row in objects.values()):
        raise ValueError("sigma must be a sequence of rows")
    distinct = [tuple(row) for row in objects.values()]
    if len(distinct) == len(table):
        # every row its own object: distinct is in table order already
        rows = tuple(distinct)
    else:
        tuple_of = dict(zip(objects, distinct))
        rows = tuple([tuple_of[id(row)] for row in table])
    if n is not _NO_N:
        _check_n(n, len(rows))
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")

    def name_first_bad_entry():
        # the row-order scan, run only on a rejected table or on int subclasses
        for row in rows:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                if not is_int(v) or not 0 <= v < n:
                    raise ValueError(f"entry {v!r} outside [0, {n})")

    # with n entries in each distinct row, all are exact ints iff that many
    # of their types are int itself: bool, float and int subclasses are
    # other types, and list.count matches a type by identity first
    exact = (
        set(map(len, distinct)) == {n}
        and list(map(type, chain(*distinct))).count(int) == n * len(distinct)
    )
    if not exact:
        name_first_bad_entry()
    # equal rows of ints are one map: check, invert and keep each class once
    cid = class_ids(rows)
    reps = list(dict(zip(cid, rows)).values())
    points = set(range(n))
    failing = [row for row in reps if set(row) != points]
    if failing:
        # only a failing class can hold an entry outside [0, n)
        if exact and any(min(row) < 0 or max(row) >= n for row in failing):
            name_first_bad_entry()
        raise NotBijectiveRow(rows.index(failing[0]))
    inverses = [inverse(row) for row in reps]
    return tuple([reps[c] for c in cid]), [inverses[c] for c in cid], cid


def tau_from_sigma(s) -> tuple[Perm, ...]:
    """Derived right action: tau[y][x] = sigma^{-1}_{sigma_x(y)}(x).

    This is the unique table making (sigma, tau) involutive. Raises
    NotBijectiveRow for the first row that is not a bijection.
    """
    rows, inv, _ = _rows(s)
    # tau_y(x) = inv[sigma_x(y)][x], read down column y of sigma
    return tuple([
        tuple([inv[v][x] for x, v in enumerate(column)]) for column in zip(*rows)
    ])


def check_cycle_condition(s) -> tuple[bool, tuple[int, int, int] | None]:
    """Evaluate the cycle condition on all triples.

    Returns (True, None) or (False, witness) with the lexicographically
    first failing (a, b, c). Raises NotBijectiveRow for the first row that
    is not a bijection. The two sides are compared as whole rows, per pair
    of row classes while k^2 <= 4n for k classes (module docstring).
    """
    return _cycle(*_rows(s))


def _composer(n):
    """Encoders (left, right) for composing permutations of range(n) in C.

    right(g)(left(f)) is f . g (x -> f(g(x))) as a sequence of ints, and
    two composites compare equal exactly when they are the same map. Up to
    256 points a row is bytes and composition is bytes.translate, with the
    left factor padded to a 256-byte table; above that it is precompose.
    """
    if n <= 256:
        pad = bytes(256 - n)
        return (lambda f: bytes(f) + pad), (lambda g: bytes(g).translate)
    return tuple, precompose


def _cycle(rows, inv, cid) -> tuple[bool, tuple[int, int, int] | None]:
    n = len(rows)
    left, right = _composer(n)
    # The condition at (a, b, c) is the condition at (b, a, c) with its
    # sides swapped, and a failure with a > b is also one at the smaller
    # triple (b, a, c), so the first failing pair with a < b names the
    # first witness. Interning holds up to k^2 composites of n points for
    # k classes, so it runs only while k^2 <= 4n; otherwise the pair scan.
    reps = list(dict(zip(cid, inv)).values())
    if len(reps) ** 2 <= 4 * n:
        # The lhs at (a, b), sigma^{-1}_{sigma^{-1}_a(b)} sigma^{-1}_a,
        # depends only on the classes of sigma^{-1}_a(b) and a: compose
        # each ordered pair of class representatives once, intern the
        # composites to ids, and lay out one row of ids over b per class.
        ids: dict = {}
        table = [left(q) for q in reps]
        by_class = []
        for q in reps:
            after_q = right(q)
            col = [ids.setdefault(after_q(t), len(ids)) for t in table]
            by_class.append(tuple([col[cid[v]] for v in q]))
        lhs_ids = [by_class[c] for c in cid]
        # The rhs at (a, b) is the lhs at (b, a), so the condition holds
        # where lhs_ids is symmetric. Rows before a match their columns, so
        # the first mismatch in row a lies at some b > a: the first failing
        # pair of the scan, composed once more to find c.
        for a, (row, column) in enumerate(zip(lhs_ids, zip(*lhs_ids))):
            if row != column:
                b = next(b for b in range(a + 1, n) if row[b] != column[b])
                lhs = right(inv[a])(left(inv[inv[a][b]]))
                rhs = right(inv[b])(left(inv[inv[b][a]]))
                c = next(c for c in range(n) if lhs[c] != rhs[c])
                return False, (a, b, c)
        return True, None
    table = [left(qa) for qa in inv]
    # after[a](table[i]) = sigma^{-1}_i . sigma^{-1}_a
    after = [right(qa) for qa in inv]
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
    return img if len(set(img)) == len(img) else None


def _braid_witness(rows, inv) -> tuple[int, int, int]:
    # r(x, y) = (u, tau_y(x)) with u = rows[x][y] and tau_y(x) = inv[u][x],
    # read on demand; compare the two triple composites
    # (id x r)(r x id)(id x r) and (r x id)(id x r)(r x id), rightmost
    # factor applied first. Witness is the lexicographically first failure.
    # It runs only after _cycle failed at some (a, b), and there the first
    # components differ at some z, so the loop always returns.
    n = len(rows)
    for x in range(n):
        for y in range(n):
            a = rows[x][y]
            b = inv[a][x]
            for z in range(n):
                u = rows[y][z]
                v = inv[u][y]
                p = rows[x][u]
                q = inv[p][x]
                w = rows[q][v]
                lhs = (p, w, inv[w][q])

                c = rows[b][z]
                e = rows[a][c]
                rhs = (e, inv[e][a], inv[c][b])
                if lhs != rhs:
                    return (x, y, z)


def _report(rows, inv, cid) -> VerifyReport:
    # the one decision on bijective rows: the cycle scan decides the braid
    # relation too (module docstring), and the scalar scan runs only to
    # name the witness of a rejected table
    ok = _cycle(rows, inv, cid)[0]
    wit = None if ok else _braid_witness(rows, inv)
    return VerifyReport(True, ok, _diagonal(inv) is not None, ok, True, wit)


def verify_solution(s) -> VerifyReport:
    """Check the axioms on a table and report each flag (a Solution's rows too).

    One cycle scan sets cycle_condition and braid, with O(k^2) row
    compositions plus n^2 id comparisons for k classes of equal rows
    (O(n^2) compositions when k^2 > 4n): with the derived tau, the braid
    relation's composition form sigma_x sigma_y =
    sigma_{sigma_x(y)} sigma_{tau_y(x)} is the cycle condition reindexed
    by (a, b) = (x, sigma_x(y)) (module docstring). Only when the scan
    fails does a scalar scan find the lexicographically first braid
    witness, reading tau on demand. When rows are not bijective nothing
    else is checkable and all flags are reported False.
    """
    try:
        table = _rows(s)
    except NotBijectiveRow:
        return VerifyReport(False, False, False, False, False, None)
    return _report(*table)


def rows_from_table(n: int, sigma) -> tuple[Perm, ...]:
    """The checked rows of a sigma table, one tuple per class of equal rows.

    The validating pass of solution_from_table alone: the table, n and
    every row are checked, with the same ValueError and NotBijectiveRow,
    but not the axioms. Solution(n, rows) of its result is a solution only
    once something decides it, as the CLI's classify, iso and aut do by
    classify.explicit_iso_to_c's certificate (module docstring).
    """
    return _rows(sigma, n)[0]


def solution_from_table(n: int, sigma) -> Solution:
    """Validate a sigma table and build the Solution.

    Accepts when the rows are bijective, the cycle condition holds and the
    diagonal map T is a bijection, which for the derived tau is equivalent
    to the braid relation plus involutivity; the decision is the report
    of verify_solution, from one cycle scan. Raises ValueError for a bad
    table or n (_check_n), NotBijectiveRow for the first non-bijective
    row, and AxiomViolation carrying that report when any axiom fails.
    """
    table = _rows(sigma, n)
    report = _report(*table)
    if not report.ok:
        raise AxiomViolation(report)
    return Solution(n, table[0])


def solution_to_json(s: Solution) -> str:
    """Serialize as {"n": ..., "sigma": [[...], ...]}; tau is never serialized.

    The text is json.dumps of that object with separators (",", ":"), byte
    for byte; each distinct row object is encoded once and its text reused.
    """
    text_of = {}
    for row in s.sigma:
        if id(row) not in text_of:
            text_of[id(row)] = json.dumps(list(row), separators=(",", ":"))
    body = ",".join([text_of[id(row)] for row in s.sigma])
    return f'{{"n":{json.dumps(s.n)},"sigma":[{body}]}}'


# solution_to_json's form up to the first row's entries
_COMPACT_HEAD = re.compile(r'\{"n":(0|[1-9][0-9]*),"sigma":\[\[')
_ROW_PIECE = re.compile(r",\[[0-9,]*")


def _shared_rows(text: str):
    """(n, sigma) of compact text with a repeated row, else None.

    Split on "]", text in solution_to_json's form is one piece per row,
    ",[" and the row's entries (the first piece once ",[" replaces its
    head), then "" and "}" with trailing JSON whitespace. json.loads parses
    each distinct row once, in one call, so equal rows come back as one
    list. The split is exact only because every distinct piece is ",["
    then digits and commas; any other text, a text with no repeated row,
    or a ValueError here gives None, and json.loads of the whole text
    decides. A split on one character costs about half one on "],[", and
    a text with no repeated row pays it for nothing.
    """
    head = _COMPACT_HEAD.match(text)
    if head is None:
        return None
    pieces = text.split("]")
    # JSON whitespace, not str.isspace
    if len(pieces) < 3 or pieces[-2] or pieces[-1].rstrip(" \t\n\r") != "}":
        return None
    del pieces[-2:]
    pieces[0] = ",[" + pieces[0][head.end() :]
    if len(set(pieces)) == len(pieces):
        return None
    number: dict = {}
    index = [number.setdefault(piece, len(number)) for piece in pieces]
    if not all(map(_ROW_PIECE.fullmatch, number)):
        return None
    try:
        n = int(head[1])
        rows = json.loads("[" + "]".join(number)[1:] + "]]")
    except ValueError:
        return None
    return n, [rows[i] for i in index]


def table_from_json(text: str) -> tuple[int, list]:
    """Parse solution JSON into (n, sigma): an object with "n" and a list "sigma".

    Checks only what JSON adds, n under _check_n; whoever takes the table
    checks its rows. Text in solution_to_json's compact form with a repeated
    row goes through _shared_rows, one json.loads call over its distinct
    row texts, so equal rows may be one list: callers must not mutate
    them. Every other text, and any text that path refuses, goes to
    json.loads whole, which raises every parse error with its own type and
    message. Raises ValueError, also for JSON nested too deeply.
    """
    shared = _shared_rows(text) if isinstance(text, str) else None
    if shared is not None:
        n, sigma = shared
        _check_n(n, len(sigma))
        return n, sigma
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
