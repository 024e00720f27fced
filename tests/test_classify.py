import gc
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from helpers import (
    CYCLIC_LEVEL3,
    LEVEL3,
    STALLED,
    UnhashableRow,
    certificate_by_conjugation,
    class_ids_by_whole_rows,
    count_class_id_passes,
    forbid_group_closure,
    is_transitive,
    oracle_is_solution,
    power,
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
from ybe_lab.core import Solution, solution_from_table, verify_solution
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
    class_ids,
    compose,
    group_closure,
    order,
)
from ybe_lab.retract import mpl
from ybe_lab.util import divisors, square_part

# The sigma tables of exhaustive_enumerate(5, ...) under each filter set
# (keys as for CLI --filter), written by the pairwise-isomorphism search
# that the orbit-set search replaced. Edit only for an intended change.
EXHAUSTIVE_5 = Path(__file__).with_name("data") / "exhaustive5.json"
FILTER_SETS = [
    ",".join(subset)
    for k in range(4)
    for subset in itertools.combinations(("indecomposable", "abelian", "mpl2"), k)
]


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
    # every unmapped point of the trivial solution ties on candidates, and
    # the search branches on the first of them, so its first certificate
    # is the identity
    trivial = solution_from_table(3, [(0, 1, 2)] * 3)
    assert are_isomorphic(trivial, trivial) == (0, 1, 2)


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
    """recover_params through the closed permutation group, check by check,
    with whole powers of rho scanned for r."""
    gens = sorted(set(s.sigma))
    if not is_transitive(group_closure(gens)):
        raise NotIndecomposable("permutation group is not transitive")
    if any(compose(a, b) != compose(b, a) for a in gens for b in gens):
        raise NotAbelian("permutation group is not abelian")
    level = mpl(s)
    if s.n >= 2 and (level is None or level > 2):
        raise NotMplAtMost2("multipermutation level exceeds 2")
    row_orders = {order(row) for row in s.sigma}
    if len(row_orders) != 1:
        raise StructureViolation("rows have different orders")
    n2 = row_orders.pop()
    n1, rem = divmod(s.n, n2)
    if rem or n2 % n1:
        raise StructureViolation("row order does not split the carrier")
    rho = s.sigma[0]
    target = power(s.sigma[rho[0]], n1)
    hits = [r for r in range(n2 // n1) if power(rho, (r + 1) * n1) == target]
    if len(hits) != 1:
        raise StructureViolation("power identity did not pin down a unique r")
    if (n1 * hits[0] ** 2) % n2:
        raise StructureViolation("recovered r fails the divisibility constraint")
    return CParams(n1, n2, hits[0])


def _outcome(f, s):
    try:
        return f(s)
    except YbeError as exc:
        return type(exc), str(exc)


def test_recover_params_matches_closure_reference(monkeypatch):
    # same triple or same exception class as the closure-based reference,
    # without building any group; are_isomorphic and the exhaustive
    # oracle under every filter build none either
    rng = random.Random(20261018)
    pool = [build_nonabelian_example(m) for m in (1, 2, 3, 4, 5)]
    pool += [solution_from_table(4, t) for t in (LEVEL3, STALLED)]
    for n in range(1, 5):
        pool += exhaustive_enumerate(n)
    for n in (*range(1, 41), 64):
        pool += [build_c(p) for p in enumerate_family(n)]
    # n2/n1 = 128 candidate r; the walk on rho's cycle takes 17 and 113 steps
    pool += [build_c((1, 128, r)) for r in (16, 112)]
    # indecomposable, cyclic permutation group, level 3
    pool.append(solution_from_table(27, CYCLIC_LEVEL3))
    pool = [shuffled_copy(s, rng)[0] for s in pool for _ in range(2)]
    # the eligibility gate's corners, as raw tables, which shuffled_copy
    # would reject
    pool += [
        # a transitive generator, then a row outside its centralizer
        Solution(4, ((1, 2, 3, 0), (1, 0, 2, 3), (1, 2, 3, 0), (1, 2, 3, 0))),
        # transitive, but the greedy generators stay on {0, 1}
        Solution(4, ((1, 0, 2, 3), (0, 2, 1, 3), (1, 0, 3, 2), (1, 0, 2, 3))),
        # intransitive and not commuting: a skipped row, then a generator
        Solution(4, ((1, 2, 0, 3), (0, 2, 1, 3), (1, 2, 0, 3), (0, 1, 2, 3))),
        Solution(4, ((1, 0, 2, 3), (2, 0, 1, 3), (1, 0, 2, 3), (1, 0, 2, 3))),
        # transitive, with a second generator that fails to commute
        Solution(4, ((1, 0, 2, 3), (2, 0, 1, 3), (3, 1, 2, 0), (1, 0, 2, 3))),
        Solution(1, ((0,),)),
        Solution(2, ((1, 0), (1, 0))),
        Solution(2, ((0, 1), (0, 1))),
        Solution(2, ((1, 0), (0, 1))),
    ]
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
    kinds = {CParams if isinstance(e, CParams) else e[0] for e in expected}
    assert kinds == {CParams, NotIndecomposable, NotAbelian, NotMplAtMost2}


def test_recover_params_hashes_the_rows_once(monkeypatch):
    # a Solution numbers its rows once (Solution.classes), and recovery,
    # the retraction, mpl and both level predicates read that partition:
    # one class_ids pass over the n rows in all, none on a second recovery,
    # no set of the rows, and no is_mpl_at_most_2 inside recovery
    def forbidden(*args):
        raise AssertionError("the rows were numbered again")

    # the package binds the name retract to the function, so modules are
    # taken from sys.modules
    classify, retract = (sys.modules[f"ybe_lab.{m}"] for m in ("classify", "retract"))
    readers = [retract.retract, mpl, retract.is_2_reductive, retract.is_mpl_at_most_2]
    calls = count_class_id_passes(monkeypatch)
    monkeypatch.setattr(retract, "is_mpl_at_most_2", forbidden)
    for name in ("set", "is_mpl_at_most_2"):
        monkeypatch.setattr(classify, name, forbidden, raising=False)
    rng = random.Random(5)
    cases = [
        (relabeled_member((2, 8, 2), rng), CParams(2, 8, 2)),
        (build_c((1, 1, 0)), CParams(1, 1, 0)),
        (solution_from_table(27, CYCLIC_LEVEL3), NotMplAtMost2),
        (build_nonabelian_example(3), NotAbelian),
    ]
    for s, expected in cases:
        calls.clear()
        outcome = _outcome(recover_params, s)
        assert outcome == expected or outcome[0] is expected
        assert calls == [s.sigma]
        assert _outcome(recover_params, s) == outcome
        assert calls == [s.sigma]
        for read in readers[: 4 if s.n >= 2 else 3]:
            read(s)
        # mpl numbers each smaller quotient once; the n rows stay numbered
        assert [rows for rows in calls if len(rows) == s.n] == [s.sigma]


def test_recover_params_and_mpl_hash_no_row():
    # rows of a regular group differ in their images of 0, so class_ids
    # keys them by that image alone: wrapped so that hashing one fails,
    # the rows of a loaded 1024-point relabeled member and of build_c
    # output give the same ids, parameters and level
    rng = random.Random(28)
    cases = [
        (relabeled_member(CParams(2, 512, 16), rng), CParams(2, 512, 16)),
        (build_c((4, 64, 8)), CParams(4, 64, 8)),
        (build_c((1, 9, 3)), CParams(1, 9, 3)),
    ]
    for s, p in cases:
        wrapped = Solution(s.n, tuple(map(UnhashableRow, s.sigma)))
        assert class_ids(wrapped.sigma) == class_ids_by_whole_rows(s.sigma)
        assert recover_params(wrapped) == p
        assert mpl(wrapped) == mpl(s) <= 2


def test_recover_params_checks_few_row_pairs(monkeypatch):
    # a regular abelian group is its own centralizer, so the gate checks
    # each distinct row against its greedy generators S alone: at most
    # |S| * k row pairs of k rows, two compositions each, where pairwise
    # commutation takes k(k-1)/2. Every row of C(n1, n2, r) has order n2,
    # so the first generator's orbit is its n2-point cycle through 0, and
    # each later one at least doubles it: |S| <= 1 + log2(n1)
    perm = sys.modules["ybe_lab.perm"]
    precompose = perm.precompose
    compositions = []

    def counted(g):
        after = precompose(g)

        def run(q):
            compositions.append(q)
            return after(q)

        return run

    monkeypatch.setattr(perm, "precompose", counted)
    rng = random.Random(26)
    for p in ((8, 64, 4), (1, 512, 32), (2, 256, 48)):
        s = relabeled_member(p, rng)
        k = len(set(s.sigma))
        compositions.clear()
        assert recover_params(s) == CParams(*p)
        gens = p[0].bit_length()  # 1 + log2(n1), as n1 is a power of 2 here
        assert len(compositions) <= 2 * gens * k < k * (k - 1)


def translation_table(orders, shift):
    """Solution(n, rows) with row x the translation by shift(x) in
    Z_o1 x Z_o2 x ...: every row lies in one regular abelian group, and no
    axiom is checked."""
    points = list(itertools.product(*map(range, orders)))
    index = {a: i for i, a in enumerate(points)}

    def translation(a):
        return tuple(
            index[tuple((u + v) % o for u, v, o in zip(a, b, orders))] for b in points
        )

    return Solution(len(points), tuple(translation(shift(x)) for x in points))


def test_recover_params_structure_guards():
    # tables whose rows generate a regular abelian group and pass the
    # level test, so that recovery reaches each guard after the gate: the
    # rows are translations by a shift that is constant on the cosets of
    # the subgroup its differences generate
    cases = [
        # shifts 1 and 4 in Z_6: orders 6 and 3
        ((6,), lambda x: (4,) if x[0] % 3 == 2 else (1,),
         "rows have different orders"),
        # rows of order 3 in Z_3^3, so n1 = 9 does not divide n2 = 3
        ((3, 3, 3), lambda x: ((1, 0, 0), (1, 1, 0), (1, 0, 1))[x[0]],
         "row order does not split the carrier"),
        # shifts 1 and 5 in Z_6 give r = 4, and 1 * 4 * 4 % 6 != 0
        ((6,), lambda x: (1,) if x[0] % 2 == 0 else (5,),
         "recovered r fails the divisibility constraint"),
    ]
    for orders, shift, message in cases:
        with pytest.raises(StructureViolation, match=message):
            recover_params(translation_table(orders, shift))
    # shifts 1 and 5 in Z_8 recover (1, 8, 0), but row 3 is not that
    # member's row at phi(3): only the certificate's one-point check sees it
    s = translation_table((8,), lambda x: (5,) if x[0] % 4 == 3 else (1,))
    assert recover_params(s) == CParams(1, 8, 0)
    with pytest.raises(StructureViolation, match="certificate verification failed"):
        explicit_iso_to_c(s)
    assert not verify_solution(s).ok


def test_explicit_iso_certificates():
    # every member up to 48 points, as built and relabeled: the one-point
    # check must accept a certificate that holds on every cell
    rng = random.Random(13)
    for n in range(1, 49):
        for p in enumerate_family(n):
            s = build_c(p)
            for t in (s, shuffled_copy(s, rng)[0]):
                outcome = explicit_iso_to_c(t)
                assert outcome.params == p
                check_certificate(outcome.phi, s, t)


def forced_outcomes(s, triples, monkeypatch):
    """explicit_iso_to_c(s) with recover_params forced to each triple: the
    certificate, or the StructureViolation message."""
    out = []
    for q in triples:
        monkeypatch.setattr("ybe_lab.classify.recover_params", lambda _, q=q: q)
        try:
            out.append(explicit_iso_to_c(s).phi)
        except StructureViolation as exc:
            out.append(str(exc))
    return out


def test_certificate_point_check_rejects_every_wrong_triple(monkeypatch):
    # distinct triples are never isomorphic, so for every relabeled member
    # up to 36 points each other valid triple of its size must fail the
    # walk closures or the one-point check
    rng = random.Random(20261021)
    for n in range(1, 37):
        family = enumerate_family(n)
        for p in family:
            s = relabeled_member(p, rng)
            wrong = [q for q in family if q != p]
            assert forced_outcomes(s, wrong, monkeypatch) == [
                "certificate verification failed"
            ] * len(wrong)


def check_against_whole_rows(sizes, seed, monkeypatch):
    """For a relabeled copy of every member on each size, and every split
    (n1, n/n1, r) with r < n/n1, valid or not: explicit_iso_to_c with
    recover_params forced to the split gives the certificate of the
    whole-row check, or its rejection. The one-point argument needs no
    more than n1*n2 = n, and splits with n1 not dividing n2 are the ones
    that reach the walk-closure check."""
    rng = random.Random(seed)
    for n in sizes:
        splits = [CParams(n1, n // n1, r) for n1 in divisors(n) for r in range(n // n1)]
        for p in enumerate_family(n):
            s = relabeled_member(p, rng)
            expected = [certificate_by_conjugation(s.sigma, q) for q in splits]
            assert expected[splits.index(p)] is not None
            assert forced_outcomes(s, splits, monkeypatch) == [
                "certificate verification failed" if phi is None else phi
                for phi in expected
            ]


def test_certificate_point_check_matches_whole_row_check(monkeypatch):
    check_against_whole_rows(range(1, 25), 20261022, monkeypatch)


@pytest.mark.slow
def test_certificate_point_check_matches_whole_row_check_to_100_points(monkeypatch):
    check_against_whole_rows(range(1, 101), 20261023, monkeypatch)


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


@pytest.mark.parametrize("filters", FILTER_SETS)
def test_exhaustive_enumerate_matches_the_5_point_listings(filters):
    listings = json.loads(EXHAUSTIVE_5.read_text(encoding="utf-8"))
    assert sorted(listings) == sorted(FILTER_SETS)
    reps = exhaustive_enumerate(
        5,
        indecomposable="indecomposable" in filters,
        abelian="abelian" in filters,
        mpl_le_2="mpl2" in filters,
    )
    assert [[list(row) for row in s.sigma] for s in reps] == listings[filters]
    if not filters:
        # the published count of involutive solutions on 5 points (OEIS A290887)
        assert len(reps) == 88


def test_exhaustive_enumerate_leaves_no_cyclic_garbage():
    # the search's per-call state is freed by reference counting at return
    gc.collect()
    gc.disable()
    try:
        exhaustive_enumerate(5, abelian=True)
        assert gc.collect() == 0
    finally:
        gc.enable()
