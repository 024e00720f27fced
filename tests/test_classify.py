import itertools
import random

import pytest

from helpers import (
    CYCLIC_LEVEL3,
    LEVEL3,
    STALLED,
    forbid_group_closure,
    is_transitive,
    oracle_is_solution,
    relabel,
)
from ybe_lab.classify import (
    _invariants,
    are_isomorphic,
    count_cyclic,
    count_family,
    enumerate_family,
    exhaustive_enumerate,
    explicit_iso_to_c,
    iso_search,
    recover_params,
)
from ybe_lab.construct import CParams, build_c, build_nonabelian_example, c_params_valid
from ybe_lab.core import solution_from_table, verify_solution
from ybe_lab.errors import (
    BoundExceeded,
    NotAbelian,
    NotIndecomposable,
    NotMplAtMost2,
    SizeLimitExceeded,
    StructureViolation,
    YbeError,
)
from ybe_lab.perm import (
    compose,
    group_closure,
    order,
    power,
)
from ybe_lab.retract import mpl
from ybe_lab.util import divisors, square_part


def check_certificate(phi, src, dst):
    """phi maps src onto dst: phi(sigma_x(y)) = sigma'_{phi(x)}(phi(y))."""
    n = src.n
    assert sorted(phi) == list(range(n))
    for x in range(n):
        for y in range(n):
            assert phi[src.sigma[x][y]] == dst.sigma[phi[x]][phi[y]]


def shuffled_copy(s, rng):
    g = list(range(s.n))
    rng.shuffle(g)
    return solution_from_table(s.n, relabel(s.sigma, g)), tuple(g)


def test_are_isomorphic_finds_relabelings():
    # the quick-reject key must be an isomorphism invariant: every class
    # on 4 points, the level-3 and stalled fixtures, the witnesses and the
    # members up to 24 points, each against two relabelings
    rng = random.Random(42)
    pool = exhaustive_enumerate(4)
    pool += [solution_from_table(len(t), t) for t in (LEVEL3, STALLED, CYCLIC_LEVEL3)]
    pool += [build_nonabelian_example(m) for m in (3, 4, 5)]
    for n in range(1, 25):
        pool += [build_c(p) for p in enumerate_family(n)]
    for s in pool:
        for _ in range(2):
            t, _ = shuffled_copy(s, rng)
            phi = are_isomorphic(s, t)
            assert phi is not None
            check_certificate(phi, s, t)


def iso_search_pool():
    """(sigma, sigma') pairs for the search, as tuples of row tuples.

    All 216 bijective 3-point tables, 40 seeded random bijective tables
    each on 2, 4 and 5 points and the 23 classes on 4 points; each table
    is paired with itself, with a seeded relabeling of itself and with the
    next table of the same size. Most tables are not solutions: the
    search's propagation uses no axiom.
    """
    rng = random.Random(20261018)
    tables = list(itertools.product(itertools.permutations(range(3)), repeat=3))
    for n in (2, 4, 5):
        tables += [[rng.sample(range(n), n) for _ in range(n)] for _ in range(40)]
    tables += [s.sigma for s in exhaustive_enumerate(4)]
    pairs = []
    for a, b in zip(tables, tables[1:] + tables[:1]):
        g = list(range(len(a)))
        rng.shuffle(g)
        pairs += [(a, a), (a, relabel(a, g))]
        if len(b) == len(a):
            pairs.append((a, b))
    return [(tuple(map(tuple, a)), tuple(map(tuple, b))) for a, b in pairs]


def test_iso_search_matches_brute_force():
    # a complete map is not checked again inside the search, so this is
    # the check that propagation alone yields exactly the certificates,
    # each once, the first being are_isomorphic's answer
    pool = iso_search_pool()
    assert len(pool) == 1072
    for a, b in pool:
        n = len(a)
        found = list(iso_search(a, b))
        assert len(set(found)) == len(found)
        assert set(found) == {
            phi
            for phi in itertools.permutations(range(n))
            if all(phi[a[x][y]] == b[phi[x]][phi[y]] for x in range(n) for y in range(n))
        }
        try:
            s, t = solution_from_table(n, a), solution_from_table(n, b)
        except YbeError:
            continue
        assert are_isomorphic(s, t) == (found[0] if found else None)


def test_are_isomorphic_negative_cases():
    assert are_isomorphic(build_c((1, 4, 0)), build_c((1, 4, 2))) is None
    assert are_isomorphic(build_c((1, 4, 0)), build_c((2, 2, 0))) is None
    assert are_isomorphic(build_c((1, 4, 2)), build_c((2, 2, 0))) is None
    assert are_isomorphic(build_c((1, 2, 0)), build_c((1, 4, 0))) is None
    trivial = solution_from_table(4, [(0, 1, 2, 3)] * 4)
    assert are_isomorphic(trivial, build_c((1, 4, 0))) is None


def test_are_isomorphic_identity_case():
    s = build_c((2, 2, 0))
    phi = are_isomorphic(s, s)
    assert phi is not None
    check_certificate(phi, s, s)


def test_nonabelian_witness_matches_family_member_at_n2():
    # the 4-point instance of the witness construction happens to have an
    # abelian group, and lands in the family
    phi = are_isomorphic(build_nonabelian_example(2), build_c((2, 2, 0)))
    assert phi is not None


def test_recover_params_round_trip_samples():
    for p in ((1, 1, 0), (1, 2, 0), (1, 4, 2), (2, 2, 0), (2, 8, 2), (1, 9, 6), (3, 3, 0)):
        assert recover_params(build_c(p)) == CParams(*p)


def test_recover_params_is_relabeling_invariant():
    rng = random.Random(7)
    for p in ((1, 4, 2), (2, 4, 0), (2, 8, 2)):
        s = build_c(p)
        for _ in range(5):
            t, _ = shuffled_copy(s, rng)
            assert recover_params(t) == CParams(*p)


def test_recover_params_rejects_decomposable():
    with pytest.raises(NotIndecomposable):
        recover_params(solution_from_table(2, [(0, 1), (0, 1)]))


def test_recover_params_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        recover_params(build_nonabelian_example(3))


def closure_reference_params(s):
    """recover_params through the closed permutation group, check by check."""
    gens = sorted(set(s.sigma))
    if not is_transitive(group_closure(gens)):
        raise NotIndecomposable
    if any(compose(a, b) != compose(b, a) for a in gens for b in gens):
        raise NotAbelian
    level = mpl(s)
    if s.n >= 2 and (level is None or level > 2):
        raise NotMplAtMost2
    row_orders = {order(row) for row in s.sigma}
    if len(row_orders) != 1:
        raise StructureViolation
    n2 = row_orders.pop()
    n1, rem = divmod(s.n, n2)
    if rem or n2 % n1:
        raise StructureViolation
    rho = s.sigma[0]
    target = power(s.sigma[rho[0]], n1)
    hits = [r for r in range(n2 // n1) if power(rho, (r + 1) * n1) == target]
    if len(hits) != 1 or (n1 * hits[0] ** 2) % n2:
        raise StructureViolation
    return CParams(n1, n2, hits[0])


def _outcome(f, s):
    try:
        return f(s)
    except YbeError as exc:
        return type(exc)


def test_recover_params_matches_closure_reference(monkeypatch):
    # same triple or same exception class as the closure-based reference,
    # without building any group; are_isomorphic and the exhaustive
    # oracle under every filter build none either
    rng = random.Random(20261018)
    pool = [build_nonabelian_example(m) for m in (1, 2, 3, 4, 5)]
    pool += [solution_from_table(4, t) for t in (LEVEL3, STALLED)]
    for n in range(1, 5):
        pool += exhaustive_enumerate(n)
    for n in range(1, 41):
        pool += [build_c(p) for p in enumerate_family(n)]
    # indecomposable, cyclic permutation group, level 3
    pool.append(solution_from_table(27, CYCLIC_LEVEL3))
    pool = [shuffled_copy(s, rng)[0] for s in pool for _ in range(2)]
    expected = [_outcome(closure_reference_params, s) for s in pool]

    forbid_group_closure(monkeypatch)
    assert [_outcome(recover_params, s) for s in pool] == expected
    for s, t in zip(pool, pool[1:]):
        are_isomorphic(s, t)
    for n in range(1, 5):
        for flags in itertools.product((False, True), repeat=3):
            exhaustive_enumerate(
                n, indecomposable=flags[0], abelian=flags[1], mpl_le_2=flags[2]
            )
    kinds = {e if isinstance(e, type) else CParams for e in expected}
    assert kinds == {CParams, NotIndecomposable, NotAbelian, NotMplAtMost2}


def test_explicit_iso_certificates():
    rng = random.Random(13)
    for p in ((1, 4, 2), (2, 2, 0), (2, 4, 0), (1, 8, 4)):
        s = build_c(p)
        outcome = explicit_iso_to_c(s)
        assert outcome.params == CParams(*p)
        check_certificate(outcome.phi, build_c(outcome.params), s)
        t, _ = shuffled_copy(s, rng)
        outcome = explicit_iso_to_c(t)
        assert outcome.params == CParams(*p)
        check_certificate(outcome.phi, build_c(outcome.params), t)


def test_certificate_check_on_row_classes_bites(monkeypatch):
    # a wrong valid triple of the same size gives a certificate that fails
    # the per-class row comparison
    s = build_c((1, 4, 0))
    monkeypatch.setattr("ybe_lab.classify.recover_params", lambda _: CParams(1, 4, 2))
    with pytest.raises(StructureViolation):
        explicit_iso_to_c(s)


def relabeled_member(p, rng):
    return shuffled_copy(build_c(p), rng)[0]


def shared_invariant_pairs(n, rng):
    """Every pair of distinct members on n points whose quick-reject
    invariants agree, each member seeded-relabeled."""
    buckets = {}
    for p in enumerate_family(n):
        buckets.setdefault(_invariants(build_c(p)), []).append(p)
    return [
        (relabeled_member(p, rng), relabeled_member(q, rng))
        for bucket in buckets.values()
        for p, q in itertools.combinations(bucket, 2)
    ]


def test_parameter_route_matches_search():
    # eligible pairs are decided by their triples; the answer, certificate
    # included, must be the search's first certificate or its None
    rng = random.Random(20261019)
    pairs = []
    for n in range(1, 65):
        for p in enumerate_family(n):
            pairs.append((relabeled_member(p, rng), relabeled_member(p, rng)))
        pairs += shared_invariant_pairs(n, rng)
    assert len(pairs) == 164 + 47
    for s, t in pairs:
        assert are_isomorphic(s, t) == next(iso_search(s.sigma, t.sigma), None)


@pytest.mark.slow
def test_parameter_route_matches_search_at_256_points():
    pairs = shared_invariant_pairs(256, random.Random(20261020))
    assert len(pairs) == 43
    for s, t in pairs:
        assert are_isomorphic(s, t) is None
        assert next(iso_search(s.sigma, t.sigma), None) is None


def test_count_family_values():
    assert count_family(1) == 1
    assert count_family(2) == 1
    assert count_family(4) == 3
    assert count_family(8) == 3
    assert count_family(9) == 4
    assert count_family(16) == 7
    assert count_family(30) == 1
    assert count_family(72) == 12
    assert count_family(81) == 13
    assert count_family(625) == 31
    assert count_family(1000) == 18


def test_count_family_is_divisor_sum_of_square_part():
    for n in (1, 2, 12, 16, 36, 100, 144):
        k = square_part(n)
        assert count_family(n) == sum(divisors(k))


def test_count_cyclic_values():
    assert count_cyclic(1) == 1
    assert count_cyclic(16) == 4
    assert count_cyclic(81) == 9
    assert count_cyclic(30) == 1


def test_count_input_checks():
    with pytest.raises(ValueError):
        count_family(0)
    with pytest.raises(ValueError):
        count_cyclic(-1)
    with pytest.raises(ValueError):
        enumerate_family(0)


def test_enumerate_family_small():
    assert enumerate_family(1) == [CParams(1, 1, 0)]
    assert enumerate_family(2) == [CParams(1, 2, 0)]
    assert enumerate_family(4) == [CParams(1, 4, 0), CParams(1, 4, 2), CParams(2, 2, 0)]


def test_enumerate_family_entries_are_valid_and_counted():
    for n in range(1, 101):
        triples = enumerate_family(n)
        assert len(triples) == count_family(n)
        assert len(set(triples)) == len(triples)
        cyclic = 0
        for p in triples:
            assert c_params_valid(*p)
            assert p.n1 * p.n2 == n
            if p.n1 == 1:
                cyclic += 1
        assert cyclic == count_cyclic(n)


def test_enumerate_family_matches_brute_force():
    # the closed form for r against a scan of every candidate triple
    for n in range(1, 2001):
        scanned = [
            CParams(n1, n // n1, r)
            for n1 in range(1, n + 1)
            if n % n1 == 0
            for r in range(n // (n1 * n1))
            if c_params_valid(n1, n // n1, r)
        ]
        assert enumerate_family(n) == scanned


def test_exhaustive_enumerate_unfiltered_counts():
    assert len(exhaustive_enumerate(1)) == 1
    assert [s.sigma for s in exhaustive_enumerate(2)] == [
        ((0, 1), (0, 1)),
        ((1, 0), (1, 0)),
    ]
    assert len(exhaustive_enumerate(3)) == 5
    assert len(exhaustive_enumerate(4)) == 23


def test_exhaustive_enumerate_reps_are_solutions_and_distinct():
    for n in (1, 2, 3, 4):
        reps = exhaustive_enumerate(n)
        for s in reps:
            assert verify_solution(s).ok
            assert oracle_is_solution([list(r) for r in s.sigma])
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert are_isomorphic(reps[i], reps[j]) is None


def test_exhaustive_enumerate_filters():
    full = exhaustive_enumerate(4)
    indec = exhaustive_enumerate(4, indecomposable=True)
    assert len(indec) == 5
    assert {s.sigma for s in indec} <= {s.sigma for s in full}
    all_flags = exhaustive_enumerate(
        4, indecomposable=True, abelian=True, mpl_le_2=True
    )
    assert sorted(recover_params(s) for s in all_flags) == enumerate_family(4)


def test_closure_bound_does_not_reach_iso_or_oracle(monkeypatch):
    # the permutation group of STALLED has 8 elements, past a bound of 4;
    # neither the isomorphism test nor the oracle's filters build it
    s = solution_from_table(4, STALLED)
    with pytest.raises(SizeLimitExceeded):
        group_closure(sorted(set(s.sigma)), max_size=4)
    t, _ = shuffled_copy(s, random.Random(5))
    forbid_group_closure(monkeypatch)
    phi = are_isomorphic(s, t)
    assert phi is not None
    check_certificate(phi, s, t)
    assert len(exhaustive_enumerate(4, indecomposable=True)) == 5


def test_exhaustive_enumerate_bound():
    with pytest.raises(BoundExceeded):
        exhaustive_enumerate(6)
    with pytest.raises(BoundExceeded):
        exhaustive_enumerate(3, max_n=2)
    assert len(exhaustive_enumerate(2, max_n=2)) == 2
    with pytest.raises(ValueError):
        exhaustive_enumerate(0)
