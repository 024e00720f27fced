import dataclasses
import itertools
import math
import random

import pytest

from helpers import (
    class_ids_by_whole_rows,
    cycle_generators,
    invariant_factors_of_cycles,
    is_cyclic,
    is_regular,
    is_transitive,
    power,
)
from ybe_lab.errors import DegreeMismatch, NotAbelian, SizeLimitExceeded
from ybe_lab.perm import (
    PermGroup,
    all_commute,
    class_ids,
    compose,
    group_closure,
    invariant_factors,
    inverse,
    is_abelian,
    is_perm,
    order,
    precompose,
)

S3_GENS = [(1, 0, 2), (0, 2, 1)]
KLEIN_GENS = [(1, 0, 3, 2), (2, 3, 0, 1)]


def test_is_perm():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 3, 1))
    assert not is_perm((0, 1, "2"))


def test_is_perm_rejects_bools():
    # the table rule: True == 1, but a bool is no point
    assert not is_perm((1, False))
    assert not is_perm((True, 0))
    with pytest.raises(ValueError):
        group_closure([(True, False)])


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (1, 0, 2)
    for i in range(3):
        assert compose(p, q)[i] == p[q[i]]


def test_precompose_is_compose_on_the_right():
    rng = random.Random(20261019)
    for n in range(1, 7):
        for _ in range(5):
            f, g = tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))
            assert precompose(g)(f) == compose(f, g)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose((0, 1), (0, 1, 2))


def test_inverse():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == tuple(range(4))
    assert compose(inverse(p), p) == tuple(range(4))


def test_class_ids_match_a_whole_row_dict():
    # rows are bucketed by their image of 0; a clash (a row unequal to the
    # first row of its bucket) hands the rest to a whole-row dict
    a, b, c, d = (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)
    cases = {
        "no clash": [a, c, (2, 0, 1), c, a],
        "clash at the first row": [a, b, a, b, c],
        "clash at the last row": [a, c, a, c, b],
        "repeated clashes": [a, b, c, d, b, a, d, c, (2, 1, 0), b],
    }
    for rows in cases.values():
        # equal rows as distinct objects too, not only one tuple per class
        for table in (rows, [tuple(list(row)) for row in rows]):
            assert class_ids(table) == class_ids_by_whole_rows(table)
    assert class_ids(cases["repeated clashes"]) == [0, 1, 2, 3, 1, 0, 3, 2, 4, 1]
    # random tables on few points, so that most rows share images of 0
    rng = random.Random(20261028)
    for _ in range(300):
        n = rng.randint(1, 5)
        pool = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 6))]
        rows = [tuple(rng.choice(pool)) for _ in range(rng.randint(1, 12))]
        assert class_ids(rows) == class_ids_by_whole_rows(rows)


def test_power():
    # the tests' power (helpers.power) against the library's compose and inverse
    p = (1, 2, 3, 0)
    assert power(p, 0) == tuple(range(4))
    assert power(p, 1) == p
    assert power(p, 2) == compose(p, p)
    assert power(p, 4) == tuple(range(4))
    assert power(p, -1) == inverse(p)
    assert power(p, -3) == p
    assert power(p, 13) == p


def test_power_matches_iterated_compose():
    rng = random.Random(3)
    for _ in range(20):
        p = list(range(6))
        rng.shuffle(p)
        p = tuple(p)
        q = tuple(range(6))
        for k in range(12):
            assert power(p, k) == q
            q = compose(p, q)


def test_order():
    assert order(tuple(range(5))) == 1
    assert order((1, 2, 3, 0)) == 4
    # one 2-cycle and one 3-cycle
    assert order((1, 0, 3, 4, 2)) == 6


def test_order_is_least_exponent():
    for p in itertools.permutations(range(5)):
        k = order(p)
        assert power(p, k) == tuple(range(5))
        for m in range(1, k):
            assert power(p, m) != tuple(range(5))


def test_group_closure_cyclic():
    g = group_closure([(1, 2, 3, 0)])
    assert len(g.elements) == 4
    assert tuple(range(4)) in g.elements
    assert g.elements == tuple(sorted(g.elements))
    assert is_transitive(g) and is_abelian(g) and is_regular(g) and is_cyclic(g)
    assert invariant_factors(g) == (4,)


def test_group_closure_symmetric():
    g = group_closure(S3_GENS)
    assert len(g.elements) == 6
    assert set(g.elements) == set(itertools.permutations(range(3)))
    assert is_transitive(g)
    assert not is_abelian(g)
    assert not is_regular(g)
    assert not is_cyclic(g)
    with pytest.raises(NotAbelian):
        invariant_factors(g)


def test_group_closure_orbits():
    g = group_closure([(1, 0, 2, 3), (0, 1, 3, 2)])
    assert g.orbit_partition == ((0, 1), (2, 3))
    assert not is_transitive(g)


def test_group_closure_input_checks():
    with pytest.raises(ValueError):
        group_closure([])
    with pytest.raises(ValueError):
        group_closure([(0, 0, 1)])
    with pytest.raises(DegreeMismatch):
        group_closure([(1, 0), (0, 1, 2)])


def test_group_closure_size_limit():
    with pytest.raises(SizeLimitExceeded):
        group_closure(S3_GENS, max_size=3)
    with pytest.raises(SizeLimitExceeded):
        group_closure(S3_GENS, max_size=5)
    g = group_closure(S3_GENS, max_size=6)
    assert len(g.elements) == 6


def test_trivial_group():
    g = group_closure([tuple(range(3))])
    assert g.elements == (tuple(range(3)),)
    assert invariant_factors(g) == ()
    assert is_abelian(g) and is_cyclic(g)
    assert not is_transitive(g)


def test_klein_group():
    g = group_closure(KLEIN_GENS)
    assert len(g.elements) == 4
    assert invariant_factors(g) == (2, 2)
    assert is_regular(g)
    assert not is_cyclic(g)


def test_invariant_factors_product_direct():
    # Z2 x Z4 acting on itself, flattened by (a, i) -> 4a + i
    g = group_closure([(4, 5, 6, 7, 0, 1, 2, 3), (1, 2, 3, 0, 5, 6, 7, 4)])
    assert len(g.elements) == 8
    assert invariant_factors(g) == (2, 4)
    assert not is_cyclic(g)


def test_invariant_factors_coprime_merge():
    # Z2 x Z3 on disjoint points is cyclic of order 6
    g = group_closure([(1, 0, 3, 4, 2)])
    assert invariant_factors(g) == (6,)
    assert is_cyclic(g)


def test_invariant_factors_divisibility_chain():
    rng = random.Random(11)
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(7))
            rng.shuffle(p)
            gens.append(tuple(p))
        g = group_closure(gens)
        if not is_abelian(g):
            continue
        chain = invariant_factors(g)
        prod = 1
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        for d in chain:
            assert d >= 2
            prod *= d
        assert prod == len(g.elements)


def test_invariant_factors_of_disjoint_cycles():
    # independent reference: disjoint cycles generate the product of their
    # cyclic groups, most of them intransitive and not regular
    rng = random.Random(15)
    for _ in range(40):
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        g = group_closure(cycle_generators(rng, lengths, rng.randint(0, 3)))
        expected = invariant_factors_of_cycles(lengths)
        assert len(g.elements) == math.prod(lengths)
        assert is_abelian(g)
        assert invariant_factors(g) == expected, lengths
        assert is_cyclic(g) == (len(expected) <= 1)


def test_permgroup_is_frozen():
    g = group_closure([(1, 0)])
    assert isinstance(g, PermGroup)
    assert [f.name for f in dataclasses.fields(g)] == ["degree", "elements", "orbit_partition"]
    with pytest.raises(AttributeError):
        g.degree = 5


def regular_representation(gens):
    """Generators of the group of gens acting on itself by left multiplication."""
    elements = group_closure(gens).elements
    index = {e: i for i, e in enumerate(elements)}
    return [tuple(index[compose(g, e)] for e in elements) for g in gens]


def test_is_abelian_agrees_with_pairwise_compose():
    # the orbit-by-orbit test against every pair of elements, and
    # all_commute on the generators against the same pairs
    dihedral4 = [(1, 2, 3, 0), (3, 2, 1, 0)]
    cases = {
        "regular S3": (regular_representation(S3_GENS), True),
        "regular D4": (regular_representation(dihedral4), True),
        "regular Z6": (regular_representation([(1, 2, 0, 4, 3)]), True),
        "regular Z2 x Z4": (regular_representation([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]), True),
        "Klein": (KLEIN_GENS, True),
        "S3": (S3_GENS, False),
        "D4 on 4 points": (dihedral4, False),
        "intransitive": ([(1, 0, 2, 3), (0, 1, 3, 2)], False),
        "trivial": ([tuple(range(3))], False),
        "Z2 x Z3 on disjoint cycles": ([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5)], False),
        "Z2 beside S3": ([(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 2, 4, 3)], False),
        "S3 beside Z3": ([(1, 0, 2, 3, 4, 5), (0, 2, 1, 3, 4, 5), (0, 1, 2, 4, 5, 3)], False),
        "S3 on two orbits": ([(1, 0, 2, 4, 3, 5), (0, 2, 1, 3, 5, 4)], False),
        "regular S3 beside Z2": (
            [g + (6, 7) for g in regular_representation(S3_GENS)] + [tuple(range(6)) + (7, 6)],
            False,
        ),
    }
    rng = random.Random(12)
    for i in range(40):
        degree = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]
        cases[f"random {i}"] = (gens, None)
    seen = set()
    for name, (gens, regular) in cases.items():
        g = group_closure(gens)
        if regular is not None:
            assert is_regular(g) == regular, name
        brute = all(compose(a, b) == compose(b, a) for a in g.elements for b in g.elements)
        assert is_abelian(g) == brute, name
        assert all_commute(gens) == brute, name
        seen.add((is_regular(g), brute))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    # no permutations, and permutations of one point, commute
    assert all_commute([])
    assert all_commute([(0,), (0,)])
