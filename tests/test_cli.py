import io
import json
import time

import pytest

import golden
from helpers import STALLED, forbid_group_closure
from ybe_lab.classify import DEFAULT_ORACLE_BOUND
from ybe_lab.cli import _build_parser, main, run
from ybe_lab.construct import build_c, build_nonabelian_example
from ybe_lab.core import solution_from_table, solution_to_json
from ybe_lab.util import square_part


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_solution(tmp_path, name, s):
    path = tmp_path / name
    path.write_text(solution_to_json(s), encoding="utf-8")
    return str(path)


def test_construct_output(capsys):
    code, out, _ = invoke(capsys, "construct", "1", "1", "0")
    assert code == 0
    assert out.strip() == '{"n":1,"sigma":[[0]]}'


def test_construct_invalid_params(capsys):
    code, out, _ = invoke(capsys, "construct", "1", "4", "1")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "InvalidParams"


def test_construct_usage_error(capsys):
    code, _, _ = invoke(capsys, "construct", "0", "1", "0")
    assert code == 2
    code, _, _ = invoke(capsys, "construct", "1", "1")
    assert code == 2
    code, _, err = invoke(capsys, "construct", "1", "4", "-1")
    assert code == 2
    assert "must be a non-negative integer" in err


def test_verify_ok(capsys, tmp_path):
    path = write_solution(tmp_path, "s.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "verify", path)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["first_failure"] is None
    assert data["braid"] and data["involutive"]


def test_verify_failure(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n":2,"sigma":[[1,0],[0,1]]}', encoding="utf-8")
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["first_failure"] == [0, 0, 0]


def test_verify_malformed_json(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text("{oops", encoding="utf-8")
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


MALFORMED = {
    "truncated": '{"n":2,"sigma":[[1,0],[1',
    "not-an-object": "[[1,0],[1,0]]",
    "missing-key": '{"n":2}',
    "n-mismatch": '{"n":3,"sigma":[[1,0],[1,0]]}',
    "not-square": '{"n":2,"sigma":[[1,0],[0]]}',
    "non-int-entry": '{"n":2,"sigma":[[1,"0"],[1,0]]}',
    "empty-table": '{"n":0,"sigma":[]}',
    "row-not-a-list": '{"n":2,"sigma":[1,0]}',
    "bool-n": '{"n":true,"sigma":[[0]]}',
    "deeply-nested": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("command", ["verify", "classify", "aut", "iso"])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    files = [str(path)]
    if command == "iso":
        files.insert(0, write_solution(tmp_path, "good.json", build_c((1, 4, 2))))
    code, out, err = invoke(capsys, command, *files)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")  # the clean usage-error path, no traceback


def test_classify_non_bijective_row(capsys, tmp_path):
    path = tmp_path / "nonbij.json"
    path.write_text('{"n":2,"sigma":[[1,0],[1,1]]}', encoding="utf-8")
    code, out, _ = invoke(capsys, "classify", str(path))
    assert code == 1
    assert out == '{"error":"NotBijectiveRow","detail":"row 1 is not a bijection"}\n'


def test_verify_missing_file(capsys):
    code, _, err = invoke(capsys, "verify", "/no/such/file.json")
    assert code == 2
    assert err


def test_verify_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":1,"sigma":[[0]]}'))
    code, out, _ = invoke(capsys, "verify", "-")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_classify_family_member(capsys, tmp_path):
    path = write_solution(tmp_path, "s.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "classify", path)
    assert code == 0
    data = json.loads(out)
    assert (data["n1"], data["n2"], data["r"]) == (1, 4, 2)
    assert data["phi"] == [0, 1, 2, 3]


def test_classify_rejects_ineligible(capsys, tmp_path):
    path = write_solution(tmp_path, "w.json", build_nonabelian_example(3))
    code, out, _ = invoke(capsys, "classify", path)
    assert code == 1
    assert json.loads(out)["error"] == "NotAbelian"


def test_iso_positive(capsys, tmp_path):
    p1 = write_solution(tmp_path, "a.json", build_c((2, 2, 0)))
    p2 = write_solution(tmp_path, "b.json", build_c((2, 2, 0)))
    code, out, _ = invoke(capsys, "iso", p1, p2)
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert sorted(data["phi"]) == [0, 1, 2, 3]


def test_iso_negative(capsys, tmp_path):
    p1 = write_solution(tmp_path, "a.json", build_c((1, 4, 0)))
    p2 = write_solution(tmp_path, "b.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "iso", p1, p2)
    assert code == 1
    assert json.loads(out) == {"isomorphic": False}


def test_iso_past_the_closure_bound(capsys, tmp_path, monkeypatch):
    # the permutation group of STALLED has 8 elements and its automorphism
    # group 2; neither iso nor aut builds a group by closure
    path = write_solution(tmp_path, "s.json", solution_from_table(4, STALLED))
    forbid_group_closure(monkeypatch)
    code, out, _ = invoke(capsys, "iso", path, path)
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = invoke(capsys, "aut", path)
    assert code == 0
    assert json.loads(out) == {
        "order": 2,
        "abelian": True,
        "invariant_factors": [2],
        "cyclic": True,
    }


def test_aut_output(capsys, tmp_path):
    path = write_solution(tmp_path, "s.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "aut", path)
    assert code == 0
    assert json.loads(out) == {
        "order": 4,
        "abelian": True,
        "invariant_factors": [2, 2],
        "cyclic": False,
    }


def test_aut_of_a_permutation_solution_in_bounded_time(capsys, tmp_path):
    # sigma_x = rho for every x, with one cycle of each length 2, 3, 5, 7
    # and 11: Aut is the centralizer of rho, cyclic of order 2310 on five
    # orbits, which the search lists; the abelian test on those 2310
    # elements must not loop over pairs of them
    rho, start = [], 0
    for length in (2, 3, 5, 7, 11):
        rho += [start + (i + 1) % length for i in range(length)]
        start += length
    path = write_solution(tmp_path, "p.json", solution_from_table(28, [rho] * 28))
    began = time.perf_counter()
    code, out, _ = invoke(capsys, "aut", path)
    elapsed = time.perf_counter() - began
    assert code == 0
    assert out == '{"order":2310,"abelian":true,"invariant_factors":[2310],"cyclic":true}\n'
    assert elapsed < 1.5, f"aut took {elapsed:.2f}s"


def test_aut_elements_flag(capsys, tmp_path):
    path = write_solution(tmp_path, "s.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "aut", path, "--elements")
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_aut_nonabelian(capsys, tmp_path):
    path = write_solution(tmp_path, "w.json", build_nonabelian_example(3))
    code, out, _ = invoke(capsys, "aut", path)
    assert code == 0
    data = json.loads(out)
    assert data == {"order": 6, "abelian": True, "invariant_factors": [6], "cyclic": True}


def test_count(capsys):
    code, out, _ = invoke(capsys, "count", "16")
    assert code == 0
    assert json.loads(out) == {"n": 16, "k": 4, "count": 7}


def test_count_of_large_n_in_bounded_time(capsys):
    # square_part divides by trial only up to the cube root of n; both
    # 10^18 + 3 and 999999937 are prime, and count is the sum of k/d, d | k
    for n, k, count in ((10**18 + 3, 1, 1), (999999937**2 * 3, 999999937, 999999938)):
        began = time.perf_counter()
        code, out, _ = invoke(capsys, "count", str(n))
        elapsed = time.perf_counter() - began
        assert code == 0
        assert json.loads(out) == {"n": n, "k": k, "count": count}
        assert elapsed < 2, f"count {n} took {elapsed:.2f}s"


def test_count_runs_the_square_part_once(capsys, monkeypatch):
    # the family count is read off the k that count already holds
    calls = []

    def counted(n):
        calls.append(n)
        return square_part(n)

    monkeypatch.setattr("ybe_lab.classify.square_part", counted)
    for extra, count in (((), 999999938), (("--cyclic",), 999999937)):
        calls.clear()
        code, out, _ = invoke(capsys, "count", str(999999937**2 * 3), *extra)
        assert code == 0
        assert json.loads(out)["count"] == count
        assert len(calls) == 1


def test_count_cyclic(capsys):
    code, out, _ = invoke(capsys, "count", "16", "--cyclic")
    assert code == 0
    assert json.loads(out) == {"n": 16, "k": 4, "count": 4}


def test_enumerate_family(capsys):
    code, out, _ = invoke(capsys, "enumerate", "16")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"n1": 1, "n2": 16, "r": 0},
        {"n1": 1, "n2": 16, "r": 4},
        {"n1": 1, "n2": 16, "r": 8},
        {"n1": 1, "n2": 16, "r": 12},
        {"n1": 2, "n2": 8, "r": 0},
        {"n1": 2, "n2": 8, "r": 2},
        {"n1": 4, "n2": 4, "r": 0},
    ]


def test_enumerate_exhaustive(capsys):
    code, out, _ = invoke(capsys, "enumerate", "2", "--exhaustive")
    assert code == 0
    data = json.loads(out)
    assert [d["sigma"] for d in data] == [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]


def test_enumerate_exhaustive_filtered(capsys):
    code, out, _ = invoke(
        capsys,
        "enumerate",
        "4",
        "--exhaustive",
        "--filter",
        "indecomposable,abelian,mpl2",
    )
    assert code == 0
    assert len(json.loads(out)) == 3


def test_enumerate_filter_requires_exhaustive(capsys):
    code, _, err = invoke(capsys, "enumerate", "4", "--filter", "abelian")
    assert code == 2
    assert "exhaustive" in err


def test_enumerate_unknown_filter(capsys):
    code, _, err = invoke(
        capsys, "enumerate", "4", "--exhaustive", "--filter", "shiny"
    )
    assert code == 2
    assert "shiny" in err


def test_max_n_default_is_the_oracle_bound():
    assert _build_parser().parse_args(["enumerate", "1"]).max_n == DEFAULT_ORACLE_BOUND


def test_enumerate_bound(capsys):
    code, out, _ = invoke(capsys, "enumerate", "6", "--exhaustive")
    assert code == 1
    assert json.loads(out)["error"] == "BoundExceeded"
    code, out, _ = invoke(capsys, "enumerate", "3", "--exhaustive", "--max-n", "2")
    assert code == 1


def test_example_pipes_into_verify(capsys, monkeypatch):
    code, out, _ = invoke(capsys, "example", "nonabelian", "3")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = invoke(capsys, "verify", "-")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_usage_without_command(capsys):
    assert invoke(capsys, )[0] == 2


def test_verbose_notes_on_stderr(capsys):
    code, out, err = invoke(capsys, "--verbose", "count", "8")
    assert code == 0
    assert json.loads(out)["count"] == 3
    assert err == ""
    code, out, err = invoke(capsys, "--verbose", "construct", "1", "2", "0")
    assert code == 0
    assert "family member" in err


def test_interrupt_exits_130_without_a_traceback(capsys, monkeypatch):
    # Ctrl-C inside a command: main prints one line and exits 130, while
    # run lets the KeyboardInterrupt through to in-process callers
    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setattr("ybe_lab.cli.count_cyclic", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(["count", "4"])
    monkeypatch.setattr("sys.argv", ["ybe-lab", "count", "4"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 130
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: interrupted\n"


def test_commands_in_sequence_share_no_state(capsys, tmp_path):
    # the parser is built once per process; no parse may leave a trace
    path = write_solution(tmp_path, "s.json", build_c((1, 4, 2)))
    code, out, _ = invoke(capsys, "aut", "--elements", path)
    assert code == 0 and "elements" in json.loads(out)
    code, out, _ = invoke(capsys, "aut", path)
    assert code == 0 and "elements" not in json.loads(out)
    code, _, err = invoke(capsys, "--verbose", "construct", "1", "2", "0")
    assert code == 0 and err
    code, _, err = invoke(capsys, "construct", "1", "2", "0")
    assert code == 0 and err == ""


def test_golden_outputs(tmp_path):
    # stdout and exit codes of construct/verify/classify/iso/aut, pinned
    # by tests/data/golden_cli.json (see tests/golden.py)
    expected = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
    assert [r["argv"] for r in expected] == golden.cases()
    golden.write_inputs(tmp_path)
    for record in expected:
        code, out = golden.run_case(record["argv"], tmp_path)
        assert (code, out) == (record["code"], record["stdout"]), record["argv"]
