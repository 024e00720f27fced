import dataclasses
import itertools
import random
from collections import Counter

import pytest

from helpers import (
    LEVEL3,
    delta,
    is_regular,
    is_transitive,
    oracle_is_solution,
    pi_isotope_by_ordered_pairs,
    random_solution_tables,
    rows_shared_iff_equal,
)
from ybe_lab.aut import aut_c_closed_form
from ybe_lab.classify import enumerate_family, exhaustive_enumerate
from ybe_lab.construct import (
    CParams,
    build_c,
    build_nonabelian_example,
    c_params_valid,
    inverse_isotope,
    pi_isotope,
)
from ybe_lab.core import Solution, solution_from_table, tau_from_sigma, verify_solution
from ybe_lab.errors import (
    CarrierTooSmall,
    ConditionFailed,
    InvalidParams,
    NotMplAtMost2,
    NotTwoReductive,
)
from ybe_lab.perm import group_closure, is_abelian
from ybe_lab.retract import is_2_reductive, is_mpl_at_most_2, mpl


def assert_solution(s):
    """Both verification routes, the independent oracle, and bijective
    rows of the derived tau."""
    assert verify_solution(s).ok
    assert oracle_is_solution([list(r) for r in s.sigma])
    assert all(sorted(row) == list(range(s.n)) for row in tau_from_sigma(s))


def test_c_params_valid():
    assert c_params_valid(1, 1, 0)
    assert c_params_valid(1, 4, 0)
    assert c_params_valid(1, 4, 2)
    assert c_params_valid(2, 2, 0)
    assert c_params_valid(2, 4, 0)
    assert c_params_valid(2, 8, 0)
    assert c_params_valid(2, 8, 2)
    assert c_params_valid(4, 4, 0)

    assert not c_params_valid(1, 4, 1)  # 4 does not divide 1
    assert not c_params_valid(1, 4, 3)  # 4 does not divide 9
    assert not c_params_valid(2, 8, 1)
    assert not c_params_valid(2, 8, 4)  # r out of range
    assert not c_params_valid(1, 1, 1)
    assert not c_params_valid(4, 2, 0)  # n1 does not divide n2
    assert not c_params_valid(3, 4, 0)
    assert not c_params_valid(0, 4, 0)
    assert not c_params_valid(2, 0, 0)
    assert not c_params_valid(1, 4, -1)


@pytest.mark.parametrize(
    "p", [(2.0, 4, 0), (1, 4.0, 0), (1, 4, 0.0), (True, 4, 0), (1, 4, False), ("1", 4, 0)]
)
def test_params_must_be_ints(p):
    # True == 1 and 2.0 == 2, but only ints are parameters, so build_c and
    # aut_c_closed_form reject the triple as invalid
    assert not c_params_valid(*p)
    with pytest.raises(InvalidParams):
        build_c(p)
    with pytest.raises(InvalidParams):
        aut_c_closed_form(p, 0, 0)


def test_build_c_rejects_invalid_params():
    with pytest.raises(InvalidParams):
        build_c((1, 4, 1))
    with pytest.raises(InvalidParams):
        build_c((4, 2, 0))


def test_build_c_smallest_members():
    assert build_c((1, 1, 0)).sigma == ((0,),)
    assert build_c((1, 2, 0)).sigma == ((1, 0), (1, 0))
    assert build_c((1, 4, 0)).sigma == ((1, 2, 3, 0),) * 4
    assert build_c((1, 4, 2)).sigma == (
        (1, 2, 3, 0),
        (3, 0, 1, 2),
        (1, 2, 3, 0),
        (3, 0, 1, 2),
    )
    assert build_c((2, 2, 0)).sigma == (
        (1, 0, 3, 2),
        (3, 2, 1, 0),
        (1, 0, 3, 2),
        (3, 2, 1, 0),
    )


def test_build_c_matches_pointwise_formula():
    # recompute sigma directly from the two-coordinate formula
    for p in (CParams(2, 4, 0), CParams(2, 8, 2), CParams(3, 3, 0)):
        s = build_c(p)
        for a in range(p.n1):
            for i in range(p.n2):
                d = delta(p, a, i)
                row = s.sigma[a * p.n2 + i]
                for b in range(p.n1):
                    for j in range(p.n2):
                        expected = ((b + d) % p.n1) * p.n2 + (j + p.r * d + 1) % p.n2
                        assert row[b * p.n2 + j] == expected


def test_delta_values():
    p = CParams(2, 8, 2)
    assert delta(p, 0, 0) == 0
    assert delta(p, 0, 5) == 5
    assert delta(p, 1, 0) == 6
    assert delta(p, 1, 3) == 1


def test_delta_determines_the_row():
    # equal rows are exactly equal translation data (d mod n1, r*d mod n2)
    p = CParams(2, 8, 2)
    s = build_c(p)
    for a1 in range(2):
        for i1 in range(8):
            d1 = delta(p, a1, i1)
            for a2 in range(2):
                for i2 in range(8):
                    d2 = delta(p, a2, i2)
                    same = s.sigma[a1 * 8 + i1] == s.sigma[a2 * 8 + i2]
                    key1 = (d1 % p.n1, p.r * d1 % p.n2)
                    key2 = (d2 % p.n1, p.r * d2 % p.n2)
                    assert same == (key1 == key2)


def test_build_c_members_are_solutions():
    for p in ((1, 6, 0), (2, 4, 0), (1, 8, 4), (2, 8, 2), (3, 3, 0), (1, 9, 3)):
        assert_solution(build_c(p))


def test_build_c_tau_matches_closed_form():
    # tau_{(b,j)}((a,i)) = (a + b*r - (j+1), i - (j+1)*r + b*r^2 - 1)
    for n in range(1, 25):
        for n1, n2, r in enumerate_family(n):
            tau = tau_from_sigma(build_c((n1, n2, r)))
            for b in range(n1):
                for j in range(n2):
                    for a in range(n1):
                        for i in range(n2):
                            aa = (a + b * r - (j + 1)) % n1
                            ii = (i - (j + 1) * r + b * r * r - 1) % n2
                            assert tau[b * n2 + j][a * n2 + i] == aa * n2 + ii


def test_three_argument_solution_is_the_same_solution():
    # the benchmark builds Solution(n, rows, tau) positionally; tau is an
    # init-only argument, dropped, so that Solution is the member
    assert [f.name for f in dataclasses.fields(Solution)] == ["n", "sigma"]
    for p in ((1, 4, 2), (2, 8, 2), (3, 9, 0)):
        member = build_c(p)
        rows = member.sigma
        three = Solution(len(rows), rows, tau_from_sigma(rows))
        assert "tau" not in repr(three)
        others = (
            member,
            Solution(len(rows), rows),
            solution_from_table(len(rows), [list(r) for r in rows]),
        )
        for other in others:
            assert three == other and hash(three) == hash(other)


def test_build_c_group_structure():
    for p in ((1, 8, 4), (2, 4, 0), (2, 8, 2)):
        s = build_c(p)
        g = group_closure(sorted(set(s.sigma)))
        assert is_transitive(g) and is_abelian(g) and is_regular(g)
        assert len(g.elements) == s.n
        assert is_mpl_at_most_2(s)


def test_pi_isotope_of_constant_base():
    base = solution_from_table(3, [(0, 1, 2)] * 3)
    pi = (1, 2, 0)
    s = pi_isotope(base, pi)
    assert s.sigma == (pi, pi, pi)


def test_pi_isotope_input_checks():
    base = solution_from_table(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        pi_isotope(base, (0, 0))
    with pytest.raises(ValueError):
        pi_isotope(base, (0, 1, 2))


def test_pi_isotope_rejects_bool_entries():
    # perm.is_perm follows the table rule: a bool is no point
    with pytest.raises(ValueError):
        pi_isotope(build_c((1, 2, 0)), (True, False))


def test_pi_isotope_needs_2_reductive_base():
    with pytest.raises(NotTwoReductive):
        pi_isotope(build_c((1, 4, 2)), (0, 1, 2, 3))


def test_pi_isotope_condition_failure():
    base = solution_from_table(
        4, [(0, 1, 2, 3), (2, 3, 0, 1), (0, 1, 2, 3), (2, 3, 0, 1)]
    )
    assert is_2_reductive(base)
    with pytest.raises(ConditionFailed) as info:
        pi_isotope(base, (1, 0, 2, 3))
    assert (info.value.x, info.value.y) == (0, 1)


def test_pi_isotope_matches_the_ordered_pair_reference():
    # every class up to 4 points under every pi: the rows, or the first
    # failing pair, agree with a test of all ordered pairs
    outcomes = Counter()
    for n in range(1, 5):
        for base in exhaustive_enumerate(n):
            for pi in itertools.permutations(range(n)):
                try:
                    got = pi_isotope(base, pi).sigma
                    outcomes["rows"] += 1
                except NotTwoReductive:
                    assert not is_2_reductive(base)
                    outcomes["NotTwoReductive"] += 1
                    continue
                except ConditionFailed as failed:
                    got = (failed.x, failed.y)
                    outcomes["ConditionFailed"] += 1
                assert got == pi_isotope_by_ordered_pairs(base.sigma, pi)
    assert outcomes == {"rows": 200, "ConditionFailed": 243, "NotTwoReductive": 144}


def test_inverse_isotope_is_2_reductive():
    s = build_c((1, 4, 2))
    red = inverse_isotope(s, 0)
    assert red.sigma == ((0, 1, 2, 3), (2, 3, 0, 1), (0, 1, 2, 3), (2, 3, 0, 1))
    assert is_2_reductive(red)
    assert red.sigma[0] == (0, 1, 2, 3)


def test_inverse_isotope_input_checks():
    s = build_c((1, 4, 2))
    with pytest.raises(ValueError):
        inverse_isotope(s, 4)
    with pytest.raises(ValueError):
        inverse_isotope(s, -1)
    with pytest.raises(NotMplAtMost2):
        inverse_isotope(solution_from_table(4, LEVEL3), 0)
    with pytest.raises(CarrierTooSmall):
        inverse_isotope(solution_from_table(1, [[0]]), 0)


@pytest.mark.parametrize("e", [True, False, 1.0, 0.5, "0", None])
def test_inverse_isotope_base_point_must_be_an_int(e):
    # True == 1 and 1.0 == 1, but neither names a point
    with pytest.raises(ValueError):
        inverse_isotope(build_c((1, 4, 2)), e)


def test_isotopes_are_mutually_inverse():
    for p in ((1, 4, 2), (2, 2, 0), (2, 4, 0), (1, 8, 4), (2, 8, 2)):
        s = build_c(p)
        for e in range(s.n):
            red = inverse_isotope(s, e)
            assert_solution(red)
            assert is_2_reductive(red)
            back = pi_isotope(red, s.sigma[e])
            assert_solution(back)
            assert back.sigma == s.sigma


def test_pi_isotope_output_has_level_at_most_2():
    cases = []
    for p in ((1, 4, 2), (2, 4, 0)):
        s = build_c(p)
        cases.append((inverse_isotope(s, 0), s.sigma[0]))
    # every twist that passes the compatibility check on fuzzed 3-point bases
    rng = random.Random(7)
    for table in random_solution_tables(rng, 3, 40):
        base = solution_from_table(3, table)
        if is_2_reductive(base):
            cases += [(base, pi) for pi in itertools.permutations(range(3))]
    checked = 0
    for base, pi in cases:
        try:
            s = pi_isotope(base, pi)
        except ConditionFailed:
            continue
        assert_solution(s)
        assert is_mpl_at_most_2(s)
        checked += 1
    assert checked > 2


def test_nonabelian_example_small_cases():
    assert build_nonabelian_example(1).sigma == ((1, 0), (1, 0))
    assert_solution(build_nonabelian_example(1))
    s2 = build_nonabelian_example(2)
    assert_solution(s2)
    g2 = group_closure(sorted(set(s2.sigma)))
    assert is_abelian(g2)
    with pytest.raises(ValueError):
        build_nonabelian_example(0)


def test_nonabelian_example_rows_match_closed_form():
    # sigma_{(a,i)}((b,j)) = (i - b mod n, 1 - j), with (a, i) -> 2a + i;
    # the rows depend on i alone, so there are two row objects (one at
    # n = 1, where the two rows are equal)
    for n in range(1, 41):
        sigma = build_nonabelian_example(n).sigma
        assert sigma == tuple(
            tuple(2 * ((i - b) % n) + 1 - j for b in range(n) for j in range(2))
            for a in range(n)
            for i in range(2)
        )
        assert len({id(row) for row in sigma}) == min(n, 2)
        assert rows_shared_iff_equal(sigma)


def test_build_c_rows_are_one_tuple_per_class():
    for n in range(1, 37):
        for p in enumerate_family(n):
            assert rows_shared_iff_equal(build_c(p).sigma)


def test_nonabelian_example_structure():
    for n in (3, 4, 5):
        s = build_nonabelian_example(n)
        assert s.n == 2 * n
        assert_solution(s)
        g = group_closure(sorted(set(s.sigma)))
        assert is_transitive(g)
        assert is_regular(g)
        assert len(g.elements) == 2 * n
        assert not is_abelian(g)
        assert mpl(s) == 2


def test_nonabelian_example_is_a_mesh_isotope():
    # rows of the 2-reductive mesh (b, j) -> (b + i, j), twisted by
    # pi((a, i)) = (-a, 1 - i)
    n = 3
    mesh = []
    for a in range(n):
        for i in range(2):
            mesh.append(
                tuple(2 * ((b + i) % n) + j for b in range(n) for j in range(2))
            )
    base = solution_from_table(2 * n, mesh)
    assert is_2_reductive(base)
    pi = tuple(
        2 * ((-a) % n) + (1 - i) for a in range(n) for i in range(2)
    )
    assert pi_isotope(base, pi).sigma == build_nonabelian_example(n).sigma
