"""Acceptance gate: the headline guarantees, one test per criterion.

Each criterion prints a single [acceptance] PASS/FAIL line (visible with
pytest -s, and on any failure) and asserts both exact values and a wall
clock budget.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from helpers import (
    STALLED,
    braid_fails_at,
    count_class_id_passes,
    cycle_condition_fails_at,
    direct_product,
    is_cyclic,
    is_regular,
    is_transitive,
    oracle_braid_witness,
    power,
    relabel,
    swap_corrupted,
)
from ybe_lab import cli
from ybe_lab.aut import aut_c_closed_form, automorphism_group, is_aut_cyclic_c1nr
from ybe_lab.classify import (
    are_isomorphic,
    count_family,
    enumerate_family,
    exhaustive_enumerate,
    explicit_iso_to_c,
    iso_search,
    recover_params,
)
from ybe_lab.construct import CParams, build_c, build_nonabelian_example
from ybe_lab.core import Solution, check_cycle_condition, solution_from_table, verify_solution
from ybe_lab.errors import NotAbelian
from ybe_lab.perm import (
    compose,
    invariant_factors,
    is_abelian,
    order,
)
from ybe_lab.retract import mpl


@contextmanager
def criterion(name: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < seconds, f"{name}: took {elapsed:.2f}s, budget {seconds}s"
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def solution_group(s):
    from ybe_lab.perm import group_closure

    return group_closure(sorted(set(s.sigma)))


def all_params_up_to(limit):
    out = []
    for n in range(1, limit + 1):
        out.extend(enumerate_family(n))
    return out


def certificate_ok(phi, src, dst):
    if sorted(phi) != list(range(src.n)):
        return False
    return all(
        phi[src.sigma[x][y]] == dst.sigma[phi[x]][phi[y]]
        for x in range(src.n)
        for y in range(src.n)
    )


def test_criterion_01_count_and_listing_at_16_points():
    with criterion("1 count and listing at 16 points", 1.0):
        assert count_family(16) == 7
        assert enumerate_family(16) == [
            CParams(1, 16, 0),
            CParams(1, 16, 4),
            CParams(1, 16, 8),
            CParams(1, 16, 12),
            CParams(2, 8, 0),
            CParams(2, 8, 2),
            CParams(4, 4, 0),
        ]


def test_criterion_02_count_at_fourth_prime_powers():
    with criterion("2 count at fourth prime powers", 1.0):
        for p in (2, 3, 5):
            assert count_family(p**4) == p * p + p + 1


def test_criterion_03_formula_matches_enumeration_to_1000():
    with criterion("3 closed count formula vs direct enumeration", 5.0):
        for n in range(1, 1001):
            assert len(enumerate_family(n)) == count_family(n)


def test_criterion_04_construction_soundness_to_24_points():
    with criterion("4 construction soundness through 24 points", 30.0):
        for p in all_params_up_to(24):
            s = build_c(p)
            report = verify_solution(s)
            assert report.bijective_rows and report.non_degenerate
            assert report.cycle_condition and report.braid and report.involutive
            g = solution_group(s)
            assert is_abelian(g) and is_transitive(g) and is_regular(g)
            assert len(g.elements) == p.n1 * p.n2
            expected = tuple(d for d in (p.n1, p.n2) if d > 1)
            assert invariant_factors(g) == expected
            level = mpl(s)
            if p.n1 == 1 and p.n2 == 1:
                assert level == 0
            elif p.n1 == 1 and p.r == 0:
                assert level == 1
            else:
                assert level == 2


def test_criterion_05_distinct_parameters_never_isomorphic():
    with criterion("5 distinct parameters never isomorphic", 60.0):
        params = all_params_up_to(12)
        built = {p: build_c(p) for p in params}
        for p in params:
            for q in params:
                phi = are_isomorphic(built[p], built[q])
                if p == q:
                    assert phi is not None
                    assert certificate_ok(phi, built[p], built[q])
                else:
                    assert phi is None
                    # the search is a reference independent of the theorem
                    if built[p].n == built[q].n:
                        assert next(iso_search(built[p].sigma, built[q].sigma), None) is None


def test_criterion_06_parameter_recovery_round_trip():
    with criterion("6 parameter recovery round trip", 60.0):
        rng = random.Random(20260819)
        for p in all_params_up_to(24):
            member = build_c(p)
            instances = [member]
            for _ in range(10):
                g = list(range(member.n))
                rng.shuffle(g)
                instances.append(
                    solution_from_table(member.n, relabel(member.sigma, g))
                )
            for inst in instances:
                assert recover_params(inst) == p
                outcome = explicit_iso_to_c(inst)
                assert outcome.params == p
                assert certificate_ok(outcome.phi, member, inst)


def test_criterion_07_exhaustive_search_matches_count():
    with criterion("7 exhaustive search matches the count through 4 points", 120.0):
        for n in (1, 2, 3, 4):
            reps = exhaustive_enumerate(
                n, indecomposable=True, abelian=True, mpl_le_2=True
            )
            assert len(reps) == count_family(n)
            recovered = [recover_params(s) for s in reps]
            assert len(set(recovered)) == len(recovered)
            assert sorted(recovered) == enumerate_family(n)
            for s, p in zip(reps, recovered):
                outcome = explicit_iso_to_c(s)
                assert outcome.params == p
                assert certificate_ok(outcome.phi, build_c(p), s)


def test_criterion_07_exhaustive_search_at_5_points():
    with criterion("7 exhaustive search matches the count at 5 and 6 points", 20.0):
        reps = exhaustive_enumerate(
            5, indecomposable=True, abelian=True, mpl_le_2=True
        )
        assert len(reps) == count_family(5) == 1
        assert recover_params(reps[0]) == CParams(1, 5, 0)
        reps = exhaustive_enumerate(
            6, indecomposable=True, abelian=True, mpl_le_2=True, max_n=6
        )
        assert len(reps) == count_family(6) == 1
        assert [recover_params(reps[0])] == enumerate_family(6) == [CParams(1, 6, 0)]


def test_criterion_08_automorphism_groups_of_the_4_point_members():
    with criterion("8 automorphism groups of the 4 point members", 1.0):
        cases = {
            (1, 4, 0): (4,),
            (1, 4, 2): (2, 2),
            (2, 2, 0): (4,),
        }
        for p, expected in cases.items():
            g = automorphism_group(build_c(p))
            assert invariant_factors(g) == expected


def test_criterion_09_cyclicity_criterion_matches_brute_force():
    with criterion("9 automorphism cyclicity criterion through 16 points", 60.0):
        checked = 0
        for n in range(1, 17):
            for r in range(n):
                if (r * r) % n:
                    continue
                predicted = is_aut_cyclic_c1nr(n, r)
                g = automorphism_group(build_c((1, n, r)))
                assert is_cyclic(g) == predicted
                checked += 1
        assert checked == 24


def test_criterion_10_identity_suites():
    with criterion("10 power and generator identities, closed form aut", 60.0):
        for p in all_params_up_to(24):
            s = build_c(p)
            n1 = p.n1
            for x in range(s.n):
                row = s.sigma[x]
                head = s.sigma[row[x]]
                assert power(head, n1) == power(row, (p.r + 1) * n1)
                # sigma at the i-th forward image of x factors through
                # powers of the two rows at x and its successor
                pt = x
                for i in range(order(row)):
                    assert s.sigma[pt] == compose(power(head, i), power(row, 1 - i))
                    pt = row[pt]
        for p in all_params_up_to(16):
            closed = {
                aut_c_closed_form(p, a, b)
                for a in range(p.n1)
                for b in range(p.n2)
            }
            assert closed == set(automorphism_group(build_c(p)).elements)


def test_criterion_11_nonabelian_witness():
    with criterion("11 witness with non-abelian permutation group", 1.0):
        s = build_nonabelian_example(3)
        assert verify_solution(s).ok
        g = solution_group(s)
        assert is_transitive(g)
        assert not is_abelian(g)
        assert len(g.elements) == 6
        assert mpl(s) == 2
        with pytest.raises(NotAbelian):
            recover_params(s)


def test_criterion_12_classify_a_256_point_file(tmp_path, capsys):
    member = build_c((2, 128, 8))
    g = list(range(member.n))
    random.Random(20261017).shuffle(g)
    table = relabel(member.sigma, g)
    path = tmp_path / "member.json"
    path.write_text(json.dumps({"n": member.n, "sigma": table}))
    inst = solution_from_table(member.n, table)
    with criterion("12 CLI classify of a 256 point file", 1.0):
        assert cli.run(["classify", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["n1"], out["n2"], out["r"]) == (2, 128, 8)
        assert certificate_ok(out["phi"], member, inst)


def test_criterion_13_aut_of_a_256_point_file(tmp_path, capsys):
    member = build_c((2, 128, 8))
    g = list(range(member.n))
    random.Random(20261018).shuffle(g)
    path = tmp_path / "member.json"
    path.write_text(json.dumps({"n": member.n, "sigma": relabel(member.sigma, g)}))
    with criterion("13 CLI aut of a 256 point file", 1.5):
        assert cli.run(["aut", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "order": 256,
            "abelian": True,
            "invariant_factors": [2, 128],
            "cyclic": False,
        }


def test_criterion_14_aut_of_the_trivial_7_point_solution(tmp_path, capsys):
    # sigma_x = id: decomposable, so aut takes the search fallback, and
    # its group is S_7 with 5040 elements
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"n": 7, "sigma": [list(range(7))] * 7}))
    with criterion("14 CLI aut of the trivial 7 point solution", 2.0):
        assert cli.run(["aut", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == '{"order":5040,"abelian":false,"invariant_factors":null,"cyclic":false}\n'


def test_criterion_15_verify_a_256_point_file(tmp_path, capsys):
    member = build_c((2, 128, 8))
    g = list(range(member.n))
    rng = random.Random(20261019)
    rng.shuffle(g)
    table = relabel(member.sigma, g)
    path = tmp_path / "member.json"
    path.write_text(json.dumps({"n": member.n, "sigma": table}))
    bad = swap_corrupted(rng, table)
    bad_path = tmp_path / "corrupted.json"
    bad_path.write_text(json.dumps({"n": member.n, "sigma": bad}))
    witness = oracle_braid_witness(bad)
    assert witness is not None
    flags = ("bijective_rows", "cycle_condition", "non_degenerate", "braid", "involutive")
    with criterion("15 CLI verify of a 256 point file", 2.0):
        assert cli.run(["verify", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == dict.fromkeys(flags, True) | {"first_failure": None, "ok": True}
        assert cli.run(["verify", str(bad_path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["first_failure"] == list(witness)
        assert not out["braid"] and not out["ok"]


def test_criterion_16_verify_classify_and_aut_of_a_512_point_file(tmp_path, capsys):
    # 16 distinct rows on 512 points: every load composes row classes, not
    # the n^2/2 row pairs
    member = build_c((2, 256, 16))
    g = list(range(member.n))
    random.Random(20261021).shuffle(g)
    path = tmp_path / "member.json"
    path.write_text(json.dumps({"n": member.n, "sigma": relabel(member.sigma, g)}))
    flags = ("bijective_rows", "cycle_condition", "non_degenerate", "braid", "involutive")
    expected = {
        "verify": dict.fromkeys(flags, True) | {"first_failure": None, "ok": True},
        "classify": {"n1": 2, "n2": 256, "r": 16},
        "aut": {"order": 512, "abelian": True, "invariant_factors": [2, 256], "cyclic": False},
    }
    for command, want in expected.items():
        capsys.readouterr()
        with criterion(f"16 CLI {command} of a 512 point file", 1.5):
            assert cli.run([command, str(path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert {key: out[key] for key in want} == want


def test_criterion_17_iso_of_two_1024_point_members_sharing_invariants():
    # C(1,1024,32) and C(1,1024,96) agree on every quick-reject invariant,
    # so only their parameter triples tell them apart without a search
    loaded = []
    for p, seed in (((1, 1024, 32), 20261022), ((1, 1024, 96), 20261023)):
        member = build_c(p)
        g = list(range(member.n))
        random.Random(seed).shuffle(g)
        loaded.append(solution_from_table(member.n, relabel(member.sigma, g)))
    with criterion("17 iso of two 1024 point members sharing invariants", 1.0):
        assert are_isomorphic(*loaded) is None


def test_criterion_18_verify_a_256_point_table_with_every_row_distinct():
    # STALLED^4 is a solution with 256 distinct rows, so k^2 > 4n and the
    # cycle scan composes one row pair for each a < b
    squared = direct_product(STALLED, STALLED)
    table = direct_product(squared, squared)
    assert len({tuple(row) for row in table}) == 256
    bad = swap_corrupted(random.Random(20261024), table)
    with criterion("18 verify of a 256 point table with every row distinct", 2.0):
        assert verify_solution(table).ok
        assert solution_from_table(256, table).sigma == tuple(map(tuple, table))
        report = verify_solution(bad)
        assert report.bijective_rows and not report.ok
        ok, witness = check_cycle_condition(bad)
        assert not ok
    # each witness fails its definition at that one triple
    assert cycle_condition_fails_at(bad, *witness)
    assert braid_fails_at(bad, *report.first_failure)


def test_criterion_19_recover_and_mpl_of_a_1024_point_raw_solution(monkeypatch):
    # the benchmark's shape: a relabeled member built as Solution(n, rows)
    # with every row its own tuple, so numbering its classes compares whole
    # rows; recovery and mpl, each run twice, share one numbering pass
    member = build_c((2, 512, 16))
    g = list(range(member.n))
    random.Random(20261031).shuffle(g)
    table = relabel(member.sigma, g)
    loaded = solution_from_table(member.n, table)
    raw = Solution(member.n, tuple(tuple(row) for row in table))
    assert len(set(map(id, raw.sigma))) == raw.n > len(set(map(id, loaded.sigma)))
    expected = (recover_params(loaded), mpl(loaded))
    assert expected == (CParams(2, 512, 16), 2)
    passes = count_class_id_passes(monkeypatch)
    with criterion("19 recover and mpl of a 1024 point raw solution", 1.0):
        for _ in range(2):
            assert (recover_params(raw), mpl(raw)) == expected
    # one pass over the n rows in all; mpl numbers only the smaller quotients
    sizes = list(map(len, passes))
    assert sizes.count(raw.n) == 1 and max(sizes[1:], default=0) < raw.n
