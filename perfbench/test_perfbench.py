"""Self-tests of the benchmark: generator, checker, harness and tracing.

    python3 -m pytest perfbench -q

They take about half a minute; the repository's own suite does not
collect them.
"""

import filecmp
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ybe_lab import cli  # noqa: E402

from perfbench import checks, run, tracing, workloads  # noqa: E402
from perfbench.workloads import Op, _cli  # noqa: E402


def _files(workdir):
    return sorted(os.listdir(workdir))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    specs = [workloads.generate(name, seed, str(d)) for seed, d in zip((7, 7, 8), dirs)]
    a, b, c = dirs
    assert _files(a) == _files(b)
    match, mismatch, errors = filecmp.cmpfiles(a, b, _files(a), shallow=False)
    assert not mismatch and not errors
    strip = lambda spec: json.dumps(spec, default=str).replace(str(a), "").replace(str(b), "")
    assert strip(specs[0]) == strip(specs[1])
    if name != "oracle":  # the oracle's seed only orders its searches
        assert strip(specs[0]) != json.dumps(specs[2], default=str).replace(str(c), "")


def test_valid_triples_match_the_definition():
    for n in range(1, 200):
        brute = [(n1, n // n1, r) for n1 in range(1, n + 1) if n % n1 == 0
                 for r in range(n // n1 // n1 if (n // n1) % n1 == 0 else 0)
                 if (n1 * r * r) % (n // n1) == 0]
        assert checks.valid_triples(n) == brute, n


def test_closed_form_members_are_solutions():
    for t in checks.valid_triples(16) + checks.valid_triples(12):
        assert checks.is_solution(checks.closed_form(*t))
    assert checks.is_solution(checks.nonabelian_witness(3))


@pytest.fixture
def member(tmp_path):
    triple = (2, 8, 2)
    table = checks.relabel(checks.closed_form(*triple), [(5 * i + 3) % 16 for i in range(16)])
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 16, "sigma": table}))
    return triple, table, str(path)


def test_tampered_classify_output_is_an_error(member):
    triple, table, path = member
    code, out = _cli(["classify", path])
    assert checks.check_classify((code, out), triple, table) is None
    data = json.loads(out)
    wrong_r = dict(data, r=(data["r"] + 1) % 4)
    assert checks.check_classify((code, json.dumps(wrong_r)), triple, table)
    phi = data["phi"]
    phi[0], phi[1] = phi[1], phi[0]
    assert checks.check_classify((code, json.dumps(data)), triple, table)
    assert checks.check_classify((1, out), triple, table)


def test_tampered_iso_aut_construct_verify_outputs_are_errors(member, tmp_path):
    triple, table, path = member
    code, out = _cli(["iso", path, path])
    assert checks.check_iso((code, out), table, table, True) is None
    data = json.loads(out)
    data["phi"][0], data["phi"][1] = data["phi"][1], data["phi"][0]
    assert checks.check_iso((code, json.dumps(data)), table, table, True)
    assert checks.check_iso((1, out), table, table, True)

    code, out = _cli(["aut", path])
    assert checks.check_aut((code, out), triple) is None
    assert checks.check_aut((code, out.replace('"order":16', '"order":8')), triple)
    assert checks.check_aut((2, out), triple)

    code, out = _cli(["construct", *map(str, triple)])
    assert checks.check_construct((code, out), triple) is None
    assert checks.check_construct((code, out), (2, 8, 6))
    assert checks.check_construct((1, out), triple)

    code, out = _cli(["verify", path])
    assert checks.check_verify((code, out), table, "ok") is None
    assert checks.check_verify((1, out), table, "ok")

    bad = workloads._swap_corrupted(random.Random(1), table)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({"n": 16, "sigma": bad}))
    code, out = _cli(["verify", str(bad_path)])
    assert checks.check_verify((code, out), bad, "witness") is None
    assert checks.check_verify((0, out), bad, "witness")
    passing = next(t for t in itertools.product(range(16), repeat=3)
                   if not checks.fails_at(bad, t))
    forged = dict(json.loads(out), first_failure=list(passing))
    assert checks.check_verify((code, json.dumps(forged)), bad, "witness")


class _FakeWorkload:
    rounds_per_sweep = 1

    def __init__(self, ops):
        self.ops = ops

    def round(self, k):
        return self.ops


def test_harness_counts_wrong_outputs_and_tracebacks():
    def boom():
        raise RuntimeError("unexpected")

    ops = [
        Op("good", 1, lambda: (0, "ok"), lambda res: None),
        Op("wrong-exit", 1, lambda: (1, "ok"), lambda res: None if res[0] == 0 else "exit"),
        Op("traceback", 1, boom, lambda res: None),
    ]
    samples, failures, attempted = run.measure(_FakeWorkload(ops), seconds=0)
    assert attempted == 3
    assert len(failures) == 2
    assert [s.kind for s in samples] == ["good", "wrong-exit"]


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    value, pct, count = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, count) == (90.0, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == 10


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_sum_to_traced_op_time(name, tmp_path):
    wl = workloads.build(name, 1, str(tmp_path))
    original = cli.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        total = 0.0
        for i, op in enumerate(wl.round(0)):
            result, dt = tracer.run_op(i, op.call)
            total += dt
            assert op.check(result) is None
    finally:
        tracer.uninstall()
    stats, op_time, outside = tracing.layer_stats(tracer.spans)
    layer_self = sum(v for k, (v, unit) in stats.items() if k.endswith(".self_s"))
    assert op_time == pytest.approx(total, rel=1e-9)
    assert layer_self + outside == pytest.approx(op_time, rel=1e-9)
    assert stats["trace.attributed_share"][0] > 0.95
    assert cli.run is original


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_benchmark_metric(trace, capsys):
    run.main(["--workload", "verify-untrusted", "--seed", "3", "--seconds", "0",
              "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
