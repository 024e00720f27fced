import json
import random

import pytest

from helpers import (
    LEVEL3,
    STALLED,
    aut_by_filtering,
    forbid_group_closure,
    invariant_factors_by_orders,
    is_cyclic,
    is_regular,
    relabel,
    shift_generators,
)
from ybe_lab.aut import (
    aut_c_closed_form,
    aut_c_invariant_factors,
    automorphism_group,
    is_aut_cyclic_c1nr,
)
from ybe_lab.classify import enumerate_family, explicit_iso_to_c, iso_search
from ybe_lab.cli import run
from ybe_lab.construct import CParams, build_c, build_nonabelian_example
from ybe_lab.core import Solution, solution_from_table, solution_to_json
from ybe_lab.errors import (
    InvalidParams,
    NotAbelian,
    NotIndecomposable,
    SizeLimitExceeded,
)
from ybe_lab.perm import (
    compose,
    group_closure,
    invariant_factors,
    inverse,
    is_abelian,
)


def searched_group(s):
    """The automorphism group found by the backtracking search."""
    return group_closure(iso_search(s.sigma, s.sigma))


def check_cyclic_by_factors(g):
    """The CLI's reading: cyclic iff abelian with at most one invariant factor."""
    try:
        factors = invariant_factors(g)
    except NotAbelian:
        factors = None
    assert is_cyclic(g) == (factors is not None and len(factors) <= 1)


def test_automorphism_group_twist4():
    g = automorphism_group(build_c((1, 4, 2)))
    assert g.elements == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert invariant_factors(g) == (2, 2)
    assert is_regular(g)
    assert not is_cyclic(g)


def test_automorphism_group_rank2():
    g = automorphism_group(build_c((2, 2, 0)))
    assert g.elements == ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    assert invariant_factors(g) == (4,)
    assert is_cyclic(g)


def test_automorphism_group_matches_full_scan():
    for p in ((1, 4, 0), (1, 4, 2), (2, 2, 0), (1, 6, 0), (2, 4, 0)):
        s = build_c(p)
        g = automorphism_group(s)
        assert sorted(g.elements) == sorted(aut_by_filtering(s.sigma))


def test_automorphism_group_of_witness():
    s = build_nonabelian_example(3)
    g = automorphism_group(s)
    assert len(g.elements) == 6
    assert is_abelian(g) and is_cyclic(g)
    assert invariant_factors(g) == (6,)
    assert sorted(g.elements) == sorted(aut_by_filtering(s.sigma))


def test_automorphism_group_equals_search():
    # eligible input takes the closed form through the certificate; the
    # result must be the search's group, elements and orbits alike
    rng = random.Random(20261017)
    for n in range(1, 41):
        for p in enumerate_family(n):
            g = list(range(n))
            rng.shuffle(g)
            s = solution_from_table(n, relabel(build_c(p).sigma, g))
            group = automorphism_group(s)
            assert group == searched_group(s)
            check_cyclic_by_factors(group)


def test_automorphism_group_conjugates_the_closed_form():
    # the elements are composed from translations and shears, so the
    # public closed form, evaluated per element, is the reference
    rng = random.Random(20261019)
    for n in (48, 64):
        for p in enumerate_family(n):
            g = list(range(n))
            rng.shuffle(g)
            s = solution_from_table(n, relabel(build_c(p).sigma, g))
            _, phi = explicit_iso_to_c(s)
            phi_inv = inverse(phi)
            expected = {
                compose(phi, compose(aut_c_closed_form(p, a, i), phi_inv))
                for a in range(p.n1)
                for i in range(p.n2)
            }
            assert set(automorphism_group(s).elements) == expected
            assert len(expected) == n


def trivial(n):
    """sigma_x = id for every x; its automorphism group is S_n."""
    return solution_from_table(n, [list(range(n))] * n)


def test_automorphism_group_falls_back_to_search(monkeypatch):
    # the search's list is the whole group: the fallback builds no closure
    # and still returns the closure reference, elements and orbits alike
    cases = {
        NotAbelian: [build_nonabelian_example(3), solution_from_table(4, STALLED)],
        NotIndecomposable: [
            solution_from_table(4, LEVEL3),
            *(trivial(n) for n in range(2, 7)),
            # the permutation solution sigma_x = (0 1 2)(3 4)
            solution_from_table(6, [[1, 2, 0, 4, 3, 5]] * 6),
        ],
        # the trivial solution on one point is the member C(1, 1, 0)
        None: [trivial(1)],
    }
    expected = {
        s: (searched_group(s), sorted(aut_by_filtering(s.sigma)))
        for sols in cases.values()
        for s in sols
    }
    forbid_group_closure(monkeypatch)
    for error, sols in cases.items():
        for s in sols:
            if error is not None:
                with pytest.raises(error):
                    explicit_iso_to_c(s)
            g = automorphism_group(s)
            reference, filtered = expected[s]
            assert g == reference
            assert sorted(g.elements) == filtered
            check_cyclic_by_factors(g)


def test_automorphism_search_fallback_is_bounded(monkeypatch, tmp_path, capsys):
    # the trivial 5-point solution has 120 automorphisms: a bound of 119
    # stops the search, a bound of 120 lets it answer
    s = trivial(5)
    path = tmp_path / "trivial.json"
    path.write_text(solution_to_json(s), encoding="utf-8")
    monkeypatch.setattr("ybe_lab.aut.DEFAULT_MAX_CLOSURE", 119)
    with pytest.raises(SizeLimitExceeded):
        automorphism_group(s)
    assert run(["aut", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "SizeLimitExceeded"
    monkeypatch.setattr("ybe_lab.aut.DEFAULT_MAX_CLOSURE", 120)
    assert len(automorphism_group(s).elements) == 120
    assert run(["aut", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 120


@pytest.mark.slow
def test_cli_aut_of_the_trivial_10_point_solution_is_bounded(tmp_path, capsys):
    # 10! = 3628800 automorphisms: the search stops past 10**6 of them
    path = tmp_path / "trivial.json"
    path.write_text(solution_to_json(trivial(10)), encoding="utf-8")
    assert run(["aut", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == "SizeLimitExceeded"


def test_automorphism_group_falls_back_past_the_closure_bound(monkeypatch):
    # the permutation group of STALLED has 8 elements, past a bound of 4,
    # and its automorphism group 2: neither parameter recovery nor the
    # search fallback builds a group by closure
    s = solution_from_table(4, STALLED)
    with pytest.raises(SizeLimitExceeded):
        group_closure(sorted(set(s.sigma)), max_size=4)
    reference = searched_group(s)
    forbid_group_closure(monkeypatch)
    with pytest.raises(NotAbelian):
        explicit_iso_to_c(s)
    g = automorphism_group(s)
    assert g == reference
    assert len(g.elements) == 2
    # an eligible 512-point member classifies under the same guard
    perm = list(range(512))
    random.Random(4).shuffle(perm)
    rows = tuple(map(tuple, relabel(build_c((2, 256, 16)).sigma, perm)))
    member = Solution(512, rows)
    assert explicit_iso_to_c(member).params == (2, 256, 16)


def test_closed_form_point():
    assert aut_c_closed_form(CParams(1, 4, 2), 0, 1) == (1, 0, 3, 2)
    assert aut_c_closed_form(CParams(1, 4, 2), 0, 0) == (0, 1, 2, 3)


def test_closed_form_gives_exactly_the_automorphisms():
    for p in ((1, 4, 2), (2, 2, 0), (2, 4, 0), (1, 8, 4), (1, 9, 3)):
        p = CParams(*p)
        closed = {
            aut_c_closed_form(p, s, t) for s in range(p.n1) for t in range(p.n2)
        }
        assert len(closed) == p.n1 * p.n2
        g = automorphism_group(build_c(p))
        assert closed == set(g.elements)


def test_closed_form_input_checks():
    with pytest.raises(InvalidParams):
        aut_c_closed_form(CParams(1, 4, 1), 0, 0)
    with pytest.raises(ValueError):
        aut_c_closed_form(CParams(1, 4, 2), 1, 0)
    with pytest.raises(ValueError):
        aut_c_closed_form(CParams(1, 4, 2), 0, 4)
    with pytest.raises(ValueError):
        aut_c_closed_form(CParams(1, 4, 2), 0, -1)


@pytest.mark.parametrize("point", [(0.5, 0), (1.0, 0), (0, 2.0), (True, 0), (0, False), ("0", 0)])
def test_closed_form_index_point_must_be_ints(point):
    # True == 1 and 1.0 == 1, but neither names a point
    with pytest.raises(ValueError):
        aut_c_closed_form(CParams(2, 4, 0), *point)


def test_cyclicity_criterion_known_values():
    assert is_aut_cyclic_c1nr(4, 0)
    assert not is_aut_cyclic_c1nr(4, 2)
    assert is_aut_cyclic_c1nr(8, 4)
    assert not is_aut_cyclic_c1nr(12, 6)
    assert is_aut_cyclic_c1nr(16, 4)
    assert is_aut_cyclic_c1nr(16, 12)
    assert is_aut_cyclic_c1nr(2, 0)


def test_cyclicity_criterion_rejects_invalid():
    with pytest.raises(InvalidParams):
        is_aut_cyclic_c1nr(4, 1)
    with pytest.raises(InvalidParams):
        is_aut_cyclic_c1nr(4, 4)


def test_cyclicity_criterion_against_brute_force_sample():
    g = automorphism_group(build_c((1, 12, 6)))
    assert len(g.elements) == 12
    assert invariant_factors(g) == (2, 6)
    assert not is_cyclic(g)
    assert is_cyclic(automorphism_group(build_c((1, 12, 0))))


def test_aut_order_equals_carrier_size():
    for p in ((1, 2, 0), (1, 6, 0), (2, 4, 0), (2, 8, 2), (3, 3, 0)):
        s = build_c(p)
        g = automorphism_group(s)
        assert len(g.elements) == s.n
        assert is_regular(g)
        assert is_abelian(g)


def test_invariant_factors_match_the_element_order_reference():
    # invariant_factors reads each order off one cycle per orbit; the
    # reference walks every point of every element. Aut of each relabeled
    # member up to 64 points is regular; the closures have several orbits,
    # generators that move more than one of them, and fixed points
    rng = random.Random(2020)
    groups = []
    for n in range(1, 65):
        for p in enumerate_family(n):
            g = list(range(n))
            rng.shuffle(g)
            t = solution_from_table(n, relabel(build_c(p).sigma, g))
            groups.append(automorphism_group(t))
    for _ in range(40):
        shapes = [
            tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        groups.append(group_closure(shift_generators(rng, shapes, rng.randint(0, 3))))
    assert any(len(g.orbit_partition) > 2 for g in groups)
    for g in groups:
        assert invariant_factors(g) == invariant_factors_by_orders(g)


def check_aut_rule_up_to(top, count):
    """The library's rule against the group itself, for every member up to
    top points."""
    members = [p for n in range(1, top + 1) for p in enumerate_family(n)]
    assert len(members) == count
    for p in members:
        assert invariant_factors(automorphism_group(build_c(p))) == (
            aut_c_invariant_factors(p)
        ), p


def test_aut_invariant_factors_rule_rejects_invalid_triples():
    for p in ((1, 4, 1), (2, 3, 0), (0, 4, 0), (1, 4, True)):
        with pytest.raises(InvalidParams):
            aut_c_invariant_factors(p)


def test_aut_invariant_factors_follow_the_closed_form():
    check_aut_rule_up_to(128, 369)


@pytest.mark.slow
def test_aut_invariant_factors_follow_the_closed_form_to_300_points():
    check_aut_rule_up_to(300, 981)
