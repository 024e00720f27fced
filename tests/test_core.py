import enum
import itertools
import json
import random

import pytest

from helpers import (
    LEVEL3,
    STALLED,
    direct_product,
    oracle_braid_witness,
    oracle_cycle_witness,
    oracle_is_solution,
    random_bijective_table,
    relabel,
    rows_shared_iff_equal,
    swap_corrupted,
)
from ybe_lab.classify import enumerate_family
from ybe_lab.construct import build_c, build_nonabelian_example
from ybe_lab.core import (
    Solution,
    VerifyReport,
    _diagonal,
    _rows,
    check_cycle_condition,
    solution_from_json,
    solution_from_table,
    solution_to_json,
    tau_from_sigma,
    verify_solution,
)
from ybe_lab.errors import AxiomViolation, NotBijectiveRow
from ybe_lab.perm import class_ids, compose, inverse, is_perm

# two valid 4-point tables used throughout: the cyclic member with twist
# and the one with a rank-two permutation group
TWIST4 = [(1, 2, 3, 0), (3, 0, 1, 2), (1, 2, 3, 0), (3, 0, 1, 2)]
RANK2 = [(1, 0, 3, 2), (3, 2, 1, 0), (1, 0, 3, 2), (3, 2, 1, 0)]
# the direct product of STALLED with itself: a 16-point solution with 16
# distinct rows, so k^2 = 256 > 4n and the cycle scan composes row pairs
STALLED_SQUARED = direct_product(STALLED, STALLED)


def interned(table):
    """True when the cycle scan interns row classes: k^2 <= 4n for k distinct rows."""
    return len({tuple(row) for row in table}) ** 2 <= 4 * len(table)


def corrupted_members(rng, limit, copies):
    """A relabeled copy of each member up to `limit` points, plus `copies`
    swap-corrupted versions of it and one with a row overwritten by a copy
    of another (most fail the axioms, deep in the table)."""
    out = []
    for n in range(2, limit + 1):
        for p in enumerate_family(n):
            g = list(range(n))
            rng.shuffle(g)
            table = relabel(build_c(p).sigma, g)
            out.append(table)
            out.extend(swap_corrupted(rng, table) for _ in range(copies))
            copied = [list(row) for row in table]
            x, y = rng.sample(range(n), 2)
            copied[x] = list(table[y])
            out.append(copied)
    return out


def test_tau_is_the_involutive_partner():
    # recompute tau from the definition with independent code, and check
    # r . r = id on every table with bijective rows, solution or not: the
    # report's involutive flag is set by construction, never scanned
    rng = random.Random(20261018)
    tables = [TWIST4, RANK2, [(0, 1), (0, 1)], [(1, 0), (1, 0)]]
    tables += itertools.product(itertools.permutations(range(3)), repeat=3)
    tables += [random_bijective_table(rng, n) for n in (4, 5, 6) for _ in range(200)]
    for table in tables:
        tau = tau_from_sigma(table)
        n = len(table)
        inv = [[0] * n for _ in range(n)]
        for x, row in enumerate(table):
            for y, v in enumerate(row):
                inv[x][v] = y
        r = {}
        for y in range(n):
            for x in range(n):
                assert tau[y][x] == inv[table[x][y]][x]
                r[(x, y)] = (table[x][y], tau[y][x])
        assert all(r[r[pair]] == pair for pair in r)
        assert verify_solution(table).involutive


def test_tau_of_twist_table():
    assert tau_from_sigma(TWIST4) == tuple(TWIST4)


def test_cycle_condition_holds_on_solutions():
    assert check_cycle_condition(TWIST4) == (True, None)
    assert check_cycle_condition(RANK2) == (True, None)


def test_cycle_condition_witness():
    ok, witness = check_cycle_condition([(1, 0, 2), (0, 1, 2), (0, 1, 2)])
    assert not ok
    assert witness == (0, 1, 0)
    assert oracle_cycle_witness([[1, 0, 2], [0, 1, 2], [0, 1, 2]]) == (0, 1, 0)


def witness_pool(rng):
    """Bijective tables on 4 to 24 points whose failures lie at many depths."""
    tables = [random_bijective_table(rng, n) for n in (4, 5, 6) for _ in range(200)]
    # rows that all fix 0, with sigma_0 the identity, pass every pair
    # (0, b), so these witnesses lie past the first row
    for n in (4, 5, 6):
        for _ in range(200):
            rest = random_bijective_table(rng, n - 1)
            rows = [[0] + [v + 1 for v in row] for row in rest]
            tables.append([list(range(n))] + rows)
    tables += corrupted_members(rng, 24, 3)
    tables += [LEVEL3, STALLED, STALLED_SQUARED, swap_corrupted(rng, STALLED_SQUARED)]
    return tables


def reference_report(table):
    """The VerifyReport that the independent oracles give a bijective table."""
    braid = oracle_braid_witness(table)
    cycle = oracle_cycle_witness(table)
    diagonal = [list(row).index(a) for a, row in enumerate(table)]
    first = braid if braid is not None else cycle
    return VerifyReport(
        True, cycle is None, sorted(diagonal) == list(range(len(table))),
        braid is None, True, first,
    )


def test_cycle_witness_matches_brute_force():
    # the scan covers a < b only; its witness must still be the first
    # failing triple over all ordered (a, b, c), on interned row classes
    # and on the pair scan alike
    tables = witness_pool(random.Random(20261017))
    firsts = {True: set(), False: set()}
    for table in tables:
        ok, witness = check_cycle_condition(table)
        assert witness == oracle_cycle_witness(table)
        assert ok == (witness is None)
        if witness is not None:
            firsts[interned(table)].add(witness[0])
    assert firsts[True] | firsts[False] >= {0, 1, 2}
    assert firsts[True] >= {0, 1} and firsts[False] >= {0, 1}


def test_braid_route_matches_scalar_reference():
    # one cycle scan sets the braid flag, and the scalar scan names the
    # witness only after that scan fails; flag, witness and whole report
    # must equal the independent oracles'
    tables = [
        [list(row) for row in t]
        for t in itertools.product(itertools.permutations(range(3)), repeat=3)
    ]
    assert len(tables) == 216
    rng = random.Random(20261019)
    tables += witness_pool(rng)
    firsts = set()
    accepted = 0
    paths = set()
    for table in tables:
        report = verify_solution(table)
        expected = reference_report(table)
        assert (report.braid, report.first_failure) == (
            expected.braid, oracle_braid_witness(table)
        )
        assert report == expected
        accepted += report.braid
        paths.add((interned(table), report.braid))
        if not report.braid:
            firsts.add(report.first_failure[0])
    assert accepted > 50 and firsts >= {0, 1, 2}
    # both sides of the switch from interned row classes to the pair scan
    # accept and reject tables
    assert paths == {(True, True), (True, False), (False, True), (False, False)}
    # both sides of the switch from bytes to itemgetter rows; an accepted
    # large table is checked through report.ok, not the n^3 reference. A
    # report shows the braid witness, so check_cycle_condition's witness is
    # checked apart, also on random tables, whose rows do not commute.
    for p in ((2, 128, 8), (1, 257, 0)):
        member = build_c(p)
        g = list(range(member.n))
        rng.shuffle(g)
        table = relabel(member.sigma, g)
        assert verify_solution(table).ok
        for bad in (swap_corrupted(rng, table), random_bijective_table(rng, member.n)):
            report = verify_solution(bad)
            assert not report.braid
            assert report == reference_report(bad)
            assert check_cycle_condition(bad) == (False, oracle_cycle_witness(bad))


def test_braid_composition_is_the_cycle_condition_reindexed():
    # verify_solution decides the braid relation through the cycle scan
    # alone; that rests on this identity: the composition form at (x, y)
    # holds exactly when the cycle condition holds at (a, b) = (x, u)
    tables = [
        [list(row) for row in t]
        for t in itertools.product(itertools.permutations(range(3)), repeat=3)
    ]
    tables += witness_pool(random.Random(20261020))
    seen = set()
    for table in tables:
        n = len(table)
        sigma = [tuple(row) for row in table]
        q = [inverse(row) for row in sigma]
        tau = tau_from_sigma(table)
        for x in range(n):
            for y in range(n):
                u, v = sigma[x][y], tau[y][x]
                braid = compose(sigma[x], sigma[y]) == compose(sigma[u], sigma[v])
                a, b = x, u
                cycle = compose(q[q[a][b]], q[a]) == compose(q[q[b][a]], q[b])
                assert braid == cycle, (table, x, y)
                seen.add(braid)
    assert seen == {True, False}


@pytest.mark.slow
def test_braid_route_matches_scalar_reference_on_all_4_point_tables():
    # exhaustive check, at this size, that the composition identity
    # accepts exactly the tables whose braid relation holds
    count = 0
    for t in itertools.product(itertools.permutations(range(4)), repeat=4):
        table = [list(row) for row in t]
        report = verify_solution(table)
        witness = oracle_braid_witness(table)
        assert (report.braid, report.first_failure) == (witness is None, witness)
        count += 1
    assert count == 331776


def test_rows_share_one_inverse_per_distinct_row():
    # equal validated rows are the same map, so _rows inverts each distinct
    # row once and equal rows share that inverse tuple
    rng = random.Random(20261021)
    tables = [TWIST4, RANK2, LEVEL3, STALLED, STALLED_SQUARED, [[0]], [[0, 1]] * 2]
    tables += corrupted_members(rng, 12, 1)
    for table in tables:
        rows, inv, cid = _rows(table)
        assert [compose(row, q) for row, q in zip(rows, inv)] == [tuple(range(len(rows)))] * len(rows)
        assert len({id(q) for q in inv}) == len(set(rows))
        first = {}
        for row, q in zip(rows, inv):
            assert first.setdefault(row, q) is q
        # the class ids _rows returns are the ones the cycle scan reads
        assert cid == class_ids(rows)
    # a row equal to a checked one as a Python value still passes the
    # entry rule: 1.0 and True hash like 1
    for bad in ((1.0, 0), (True, 0), (1, False)):
        with pytest.raises(ValueError):
            _rows([(1, 0), bad])
    # also as one more copy of a repeated valid row, or after a repeating row
    for bad in ((1.0, 0, 2), (True, 0, 2)):
        for table in ([(1, 0, 2), (1, 0, 2), bad], [(0, 0, 1), (1, 0, 2), bad]):
            with pytest.raises(ValueError):
                _rows(table)
    # int subclasses are ints: IntEnum entries pass and share the classes
    # and inverses of the equal int rows
    points = enum.IntEnum("Points", "A B C D", start=0)
    rows, inv, cid = _rows([[points(v) for v in row] for row in TWIST4[:2]] + TWIST4[2:])
    assert (rows, inv, cid) == _rows(TWIST4)
    assert inv[0] is inv[2] and cid == [0, 1, 0, 1]


def test_loaded_rows_are_one_tuple_per_class():
    # _rows hands out one tuple per class of equal rows, so a loaded
    # Solution's rows are the same object exactly when they are equal
    rng = random.Random(20261028)
    tables = [TWIST4, RANK2, LEVEL3, STALLED, [[0]]]
    for p in enumerate_family(16) + enumerate_family(36):
        perm = list(range(p.n1 * p.n2))
        rng.shuffle(perm)
        tables.append(relabel(build_c(p).sigma, perm))
    for table in tables:
        n = len(table)
        text = json.dumps({"n": n, "sigma": [list(row) for row in table]})
        for s in (solution_from_table(n, table), solution_from_json(text)):
            assert s.sigma == tuple(map(tuple, table))
            assert rows_shared_iff_equal(s.sigma, table)


def test_t_map_values():
    # T(a) = sigma^{-1}_a(a) is the y with sigma_a(y) = a
    for table, t in ((TWIST4, (3, 2, 1, 0)), (RANK2, (1, 2, 3, 0)), ([(0,)], (0,))):
        assert _diagonal(_rows(table)[1]) == t
        assert verify_solution(table).non_degenerate


def test_t_map_degenerate():
    # T = (0, 0) is not a bijection
    assert _diagonal(_rows([(0, 1), (1, 0)])[1]) is None
    assert not verify_solution([(0, 1), (1, 0)]).non_degenerate


def test_non_degenerate_reads_the_diagonal_map():
    # non_degenerate says whether T is a bijection
    for table in itertools.product(itertools.permutations(range(3)), repeat=3):
        diagonal = {row.index(a) for a, row in enumerate(table)}
        assert verify_solution(table).non_degenerate == (len(diagonal) == 3)


def test_verify_accepts_solutions():
    for table in (TWIST4, RANK2, [[0]], [[0, 1], [0, 1]], [[1, 0], [1, 0]]):
        report = verify_solution(table)
        assert report.ok
        assert report.first_failure is None
        assert oracle_is_solution([list(r) for r in table])


def test_verify_non_bijective_rows():
    report = verify_solution([[0, 0], [1, 0]])
    assert not report.bijective_rows
    assert not report.ok
    assert report.first_failure is None


def test_verify_failure_flags():
    # bijective rows, but r is not a braiding; tau degenerates
    report = verify_solution([[0, 1], [1, 0]])
    assert report.bijective_rows
    assert not report.cycle_condition
    assert not report.non_degenerate
    assert not report.braid
    assert report.involutive
    assert report.first_failure == (0, 0, 1)
    assert not report.ok

    report = verify_solution([[1, 0], [0, 1]])
    assert (report.cycle_condition, report.braid) == (False, False)
    assert report.first_failure == (0, 0, 0)


def test_verify_agrees_with_independent_oracle():
    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.choice((2, 3))
        table = random_bijective_table(rng, n)
        report = verify_solution(table)
        assert report.ok == oracle_is_solution(table)


def test_cycle_condition_implies_both_routes():
    # a finite cycle set is non-degenerate (Rump), so on every bijective
    # 3-point table the cycle condition alone gives a solution
    tables = list(itertools.product(itertools.permutations(range(3)), repeat=3))
    assert len(tables) == 216
    cycle_sets = [t for t in tables if check_cycle_condition(t)[0]]
    for table in cycle_sets:
        report = verify_solution(table)
        assert report.non_degenerate and report.braid and report.involutive
    assert len(cycle_sets) == sum(oracle_is_solution([list(r) for r in t]) for t in tables)


def test_solution_from_table_agrees_with_verify():
    # solution_from_table decides through verify_solution's report; it must
    # accept exactly the tables that report accepts and carry it on rejection
    tables = [
        [list(row) for row in t]
        for t in itertools.product(itertools.permutations(range(3)), repeat=3)
    ]
    assert len(tables) == 216
    tables += corrupted_members(random.Random(7), 24, 2)
    tables += [LEVEL3, STALLED, build_nonabelian_example(3).sigma]
    accepted = rejected = 0
    for table in tables:
        report = verify_solution(table)
        try:
            s = solution_from_table(len(table), table)
        except AxiomViolation as exc:
            assert not report.ok
            assert exc.report == report
            rejected += 1
        else:
            assert report.ok
            assert s.sigma == tuple(tuple(row) for row in table)
            accepted += 1
    assert accepted > 50 and rejected > 200


def test_solution_from_table():
    s = solution_from_table(4, TWIST4)
    assert isinstance(s, Solution)
    assert s.n == 4
    assert s.sigma == tuple(TWIST4)
    assert tau_from_sigma(s) == tuple(TWIST4)


def test_solution_from_table_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solution_from_table(2, [[0, 1]])
    with pytest.raises(ValueError):
        solution_from_table(2, [[0, 1], [0]])
    with pytest.raises(ValueError):
        solution_from_table(2, [[0, 1], [0, 2]])
    with pytest.raises(ValueError):
        solution_from_table(2, [[0, 1], [True, 1]])
    with pytest.raises(ValueError):
        solution_from_table(0, [])


def test_solution_from_table_rejects_bool_n():
    # True == 1, but a bool n is no carrier size, as a bool entry is no
    # point; the JSON reader's check is in test_cli.py's MALFORMED
    with pytest.raises(ValueError):
        solution_from_table(True, [[0]])


def test_solution_from_table_rejects_non_bijective_row():
    with pytest.raises(NotBijectiveRow) as info:
        solution_from_table(2, [[0, 1], [1, 1]])
    assert info.value.row == 1


def test_one_pass_validation_precedence():
    # one pass over the table: a bad entry anywhere beats a repeating row
    # before it, and the first repeating row is the one reported
    for bad in (3, -1, True, 1.0, "0"):
        table = [[0, 0, 1], [0, 1, 2], [2, 1, bad]]
        with pytest.raises(ValueError):
            solution_from_table(3, table)
        with pytest.raises(ValueError):
            verify_solution(table)
    # an entry outside [0, n) in a row after the first repeating row, also
    # when that row repeats a value and sits in a class of equal rows
    for table in (
        [[0, 1, 2, 3], [1, 1, 0, 2], [0, 1, 2, 3], [3, 2, 1, 4]],
        [[0, 1, 2, 3], [1, 1, 0, 2], [1, 1, 0, 2], [3, 3, 1, -1]],
        [[1, 1, 0, 2], [0, 1, 2, 3], [1, 1, 0, 2], [1, 1, 0, 4]],
    ):
        with pytest.raises(ValueError):
            solution_from_table(4, table)
        with pytest.raises(ValueError):
            verify_solution(table)
    table = [[0, 1, 2, 3], [2, 3, 0, 1], [1, 1, 0, 2], [1, 1, 0, 2]]
    with pytest.raises(NotBijectiveRow) as info:
        solution_from_table(4, table)
    assert info.value.row == 2
    # IntEnum entries are ints, as is_perm counts them
    points = enum.IntEnum("Points", "A B C D", start=0)
    assert verify_solution([[points(v) for v in row] for row in TWIST4]).ok
    table = [[0, 1, 2], [1, 1, 0], [2, 2, 2]]
    with pytest.raises(NotBijectiveRow) as info:
        solution_from_table(3, table)
    assert info.value.row == 1
    assert verify_solution(table) == VerifyReport(False, False, False, False, False, None)
    for helper in (check_cycle_condition, tau_from_sigma):
        with pytest.raises(NotBijectiveRow) as info:
            helper([[0, 0], [1, 0]])
        assert info.value.row == 0


def test_a_solution_is_checked_like_any_table():
    # _rows trusts no type: a directly built Solution with a repeating row
    # is rejected as its raw table would be
    bad = Solution(2, ((0, 0), (0, 1)))
    assert verify_solution(bad) == VerifyReport(False, False, False, False, False, None)
    for helper in (check_cycle_condition, tau_from_sigma):
        with pytest.raises(NotBijectiveRow) as info:
            helper(bad)
        assert info.value.row == 0
    with pytest.raises(ValueError):
        verify_solution(Solution(1, ((True,),)))
    good = solution_from_table(4, TWIST4)
    assert verify_solution(good) == verify_solution(TWIST4)
    assert verify_solution(good).ok


def test_tables_and_rows_that_are_not_sequences_raise_value_error():
    for call in (
        lambda: verify_solution([5]),
        lambda: verify_solution(None),
        lambda: check_cycle_condition([[0, 1], None]),
        lambda: solution_from_table(1, [7]),
        lambda: solution_from_table(1, 7),
        lambda: solution_from_table(2, [[0, 0], 1]),
        # iterables that are no sequences: sets, dicts and generators
        lambda: verify_solution([{1, 0}, {0, 1}]),
        lambda: solution_from_table(2, [{0: "a", 1: "b"}, range(2)]),
        lambda: verify_solution(row for row in [[0]]),
        lambda: verify_solution({0: [0]}),
    ):
        with pytest.raises(ValueError):
            call()


def test_solution_from_table_checks_n_by_one_rule():
    # n is an int, not a bool, equal to the number of rows; no value of n
    # stands for "take it from the table"
    for n in (None, True, 1.0, "1", 0, 2):
        with pytest.raises(ValueError):
            solution_from_table(n, [[0]])


def test_is_perm_agrees_with_table_validation():
    # perm.is_perm and core._rows apply one entry rule (ints,
    # never bools); a row is a permutation exactly when the table made of
    # copies of it has bijective rows, and a bad entry raises ValueError
    entries = (0, 1, 2, -1, True, False, 1.0, "0", None)
    for length in (1, 2, 3):
        for row in itertools.product(entries, repeat=length):
            try:
                bijective = verify_solution([row] * length).bijective_rows
            except ValueError:
                bijective = False
            assert is_perm(row) == bijective, row


def test_solution_from_table_rejects_axiom_violations():
    with pytest.raises(AxiomViolation) as info:
        solution_from_table(2, [[0, 1], [1, 0]])
    assert not info.value.report.ok


def test_solution_is_frozen():
    s = solution_from_table(1, [[0]])
    with pytest.raises(AttributeError):
        s.n = 2


def test_json_round_trip():
    s = solution_from_table(4, TWIST4)
    text = solution_to_json(s)
    data = json.loads(text)
    assert set(data) == {"n", "sigma"}
    assert solution_from_json(text) == s
    assert solution_to_json(solution_from_table(1, [[0]])) == '{"n":1,"sigma":[[0]]}'


def test_json_parse_errors():
    with pytest.raises(ValueError):
        solution_from_json("[]")
    with pytest.raises(ValueError):
        solution_from_json('{"n": 2}')
    with pytest.raises(json.JSONDecodeError):
        solution_from_json("{not json")
    with pytest.raises(AxiomViolation):
        solution_from_json('{"n":2,"sigma":[[0,1],[1,0]]}')
