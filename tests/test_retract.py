import itertools
import random

import pytest

from helpers import (
    CYCLIC_LEVEL3,
    LEVEL3,
    STALLED,
    oracle_is_solution,
    random_bijective_table,
    random_solution_tables,
)

from ybe_lab.classify import enumerate_family
from ybe_lab.construct import build_c, build_nonabelian_example
from ybe_lab.core import Solution, solution_from_table, tau_from_sigma, verify_solution
from ybe_lab.errors import CarrierTooSmall
from ybe_lab.classify import exhaustive_enumerate
from ybe_lab.retract import is_2_reductive, is_mpl_at_most_2, mpl, retract


def test_retract_collapses_equal_rows():
    res = retract(build_c((1, 4, 2)))
    assert res.projection == (0, 1, 0, 1)
    assert res.quotient.n == 2
    assert res.quotient.sigma == ((1, 0), (1, 0))


def test_retract_numbers_classes_by_first_occurrence():
    res = retract(build_c((2, 8, 0)))
    assert res.quotient.n == 2
    assert res.projection == tuple(i % 2 for i in range(16))


def test_retract_of_rigid_table_is_itself():
    s = solution_from_table(4, STALLED)
    res = retract(s)
    assert res.quotient.n == 4
    assert res.projection == (0, 1, 2, 3)


def test_retract_is_well_defined():
    # equal rows map to equal quotient rows, cell by cell, down the whole
    # retraction tower; every quotient is a solution
    rng = random.Random(8)
    pool = [build_c(p) for n in range(1, 25) for p in enumerate_family(n)]
    pool += [build_nonabelian_example(m) for m in (1, 2, 3, 4)]
    pool += [solution_from_table(3, t) for t in random_solution_tables(rng, 3, 60)]
    pool += [solution_from_table(4, t) for t in (LEVEL3, STALLED)]
    for s in pool:
        while True:
            res = retract(s)
            q, proj = res.quotient, res.projection
            assert sorted(set(proj)) == list(range(q.n))
            first = [proj.index(c) for c in range(q.n)]
            assert first == sorted(first)  # classes numbered by first occurrence
            for x in range(s.n):
                for y in range(s.n):
                    assert (proj[x] == proj[y]) == (s.sigma[x] == s.sigma[y])
                    assert q.sigma[proj[x]][proj[y]] == proj[s.sigma[x][y]]
            assert verify_solution(q).ok
            assert oracle_is_solution([list(r) for r in q.sigma])
            if q.n == s.n:
                break
            s = q


def test_mpl_values():
    assert mpl(solution_from_table(1, [[0]])) == 0
    assert mpl(build_c((1, 2, 0))) == 1
    assert mpl(build_c((1, 6, 0))) == 1
    assert mpl(build_c((1, 4, 2))) == 2
    assert mpl(build_c((2, 2, 0))) == 2
    assert mpl(solution_from_table(4, LEVEL3)) == 3
    assert mpl(solution_from_table(4, STALLED)) is None


def test_is_2_reductive():
    assert is_2_reductive(build_c((1, 4, 0)))
    assert is_2_reductive(solution_from_table(2, [[0, 1], [0, 1]]))
    assert not is_2_reductive(build_c((1, 4, 2)))
    assert not is_2_reductive(build_c((2, 8, 0)))
    assert not is_2_reductive(build_c((2, 8, 2)))


def test_2_reductive_implies_level_at_most_2():
    rng = random.Random(5)
    for table in random_solution_tables(rng, 3, 60):
        s = solution_from_table(3, table)
        if is_2_reductive(s):
            level = mpl(s)
            assert level is not None and level <= 2


def test_is_mpl_at_most_2():
    assert is_mpl_at_most_2(build_c((1, 4, 0)))
    assert is_mpl_at_most_2(build_c((1, 4, 2)))
    assert is_mpl_at_most_2(build_c((2, 8, 2)))
    assert not is_mpl_at_most_2(solution_from_table(4, LEVEL3))
    assert not is_mpl_at_most_2(solution_from_table(4, STALLED))
    cyclic_level3 = solution_from_table(27, CYCLIC_LEVEL3)
    assert mpl(cyclic_level3) == 3
    assert not is_mpl_at_most_2(cyclic_level3)


def test_class_id_predicates_match_row_compares():
    # the class-id level-2 and 2-reductivity tests against whole-row
    # compares on every bijective 3-point table and fuzzed larger ones,
    # solutions or not
    tables = [list(t) for t in itertools.product(itertools.permutations(range(3)), repeat=3)]
    rng = random.Random(9)
    tables += [random_bijective_table(rng, n) for n in (2, 4, 5) for _ in range(200)]
    tables += [s.sigma for s in exhaustive_enumerate(4)]
    seen = set()
    for t in tables:
        n = len(t)
        rows = tuple(tuple(row) for row in t)
        s = Solution(n, rows, tau_from_sigma(rows))
        level2 = all(
            rows[rows[y][x]] == rows[rows[0][x]] for x in range(n) for y in range(n)
        )
        reductive = all(rows[rows[x][y]] == rows[y] for x in range(n) for y in range(n))
        assert is_mpl_at_most_2(s) == level2
        assert is_2_reductive(s) == reductive
        seen.add((level2, reductive))
    assert seen == {(True, True), (True, False), (False, False)}


def test_is_mpl_at_most_2_needs_two_points():
    with pytest.raises(CarrierTooSmall):
        is_mpl_at_most_2(solution_from_table(1, [[0]]))


def test_level_predicate_equals_level_computation():
    # row-equality test against the retraction tower, across every
    # 4-point isomorphism class and fuzzed smaller solutions
    rng = random.Random(6)
    pool = [solution_from_table(3, t) for t in random_solution_tables(rng, 3, 60)]
    pool += [solution_from_table(2, t) for t in random_solution_tables(rng, 2, 10)]
    pool += exhaustive_enumerate(4)
    assert len(pool) == 93
    for s in pool:
        level = mpl(s)
        assert is_mpl_at_most_2(s) == (level is not None and level <= 2)
