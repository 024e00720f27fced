"""Seeded inputs and the op lists of the four workloads.

generate(name, seed, workdir) writes a workload's input files and returns
its plain-data spec; the same seed gives byte-identical files. build()
turns a spec into a Workload, whose round(k) is the k-th round of timed
ops. The program sees only the generated files, tables and Solutions.
Every op calls the library through a module attribute (cli.run,
classify.recover_params, ...) so that the traced run's wrappers see it.
"""

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from ybe_lab import classify, cli, core

from . import checks

# The package re-exports the function retract under the submodule's name.
retract = importlib.import_module("ybe_lab.retract")

WHY = {
    "members-cli": "The main user path: construct, classify, aut and iso through cli.run; "
    "cubic validation in core plus the automorphism search do most of the work.",
    "verify-untrusted": "Untrusted tables must keep paying both verification routes; "
    "also runs the early-exit reject paths that members-cli never reaches.",
    "members-large": "recover_params and mpl on 512-point members, where whole-row tuple "
    "compares and group closure dominate, plus the enumerate_family r-scan near 10^6.",
    "oracle": "The exhaustive search: depth-first scan, per-completion validation and "
    "pairwise isomorphism dedup dominate only here.",
}

# members-cli: every valid triple at these sizes; 36 has n1 = 1 members
# with r = 2 mod 4, whose automorphism group is not cyclic.
CLI_SIZES = (36, 48, 64)
VERIFY_SIZES = (128, 64)
WITNESS_M = 32  # the non-abelian witness on 2 * 32 = 64 points
WITNESS_COPIES = 3
LARGE_TRIPLES = ((1, 512, 32), (2, 256, 16), (4, 128, 8), (8, 64, 4))
# n near 10^6 with many divisors; the r-scan costs about n steps for each.
ENUMERATE_NS = (997920, 1000000, 1048576, 1081080)
# Oracle searches as (n, filter names). Each round runs the small ones and
# one of the two 5-point searches, alternating; two rounds make a sweep.
ORACLE_SMALL = (
    (1, ()), (2, ()), (3, ()), (4, ()),
    (4, ("indecomposable", "abelian", "mpl2")),
    (4, ("abelian",)),
)
ORACLE_FIVE = ((5, ("indecomposable", "abelian", "mpl2")), (5, ("abelian",)))

WORKLOADS = tuple(WHY)


@dataclass
class Op:
    kind: str  # per-command group, e.g. "classify" or "verify-ok"
    size: int  # size class in points
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _interleave(triples):
    """Order triples so that consecutive rounds vary n1."""
    groups = {}
    for t in triples:
        groups.setdefault(t[0], []).append(t)
    out = []
    for i in range(max(len(g) for g in groups.values())):
        out.extend(g[i] for g in groups.values() if i < len(g))
    return out


def _perm(rng, n):
    g = list(range(n))
    rng.shuffle(g)
    return g


def _write(workdir, name, table):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": len(table), "sigma": table}, fh, separators=(",", ":"))
    return path


def _swap_corrupted(rng, table):
    """Swap two entries of one row, until the cycle condition provably fails."""
    n = len(table)
    while True:
        x = rng.randrange(n)
        j, k = rng.sample(range(n), 2)
        bad = [row[:] for row in table]
        bad[x][j], bad[x][k] = bad[x][k], bad[x][j]
        if checks.cycle_failure_through(bad, x) is not None:
            return bad


def _nonbijective(rng, table):
    n = len(table)
    bad = [row[:] for row in table]
    x = rng.randrange(n)
    j, k = rng.sample(range(n), 2)
    bad[x][j] = bad[x][k]
    return bad


def generate(name, seed, workdir):
    """Write the inputs of one workload; returns its spec."""
    rng = random.Random(f"{name}/{seed}")
    if name == "members-cli":
        classes = []
        for n in CLI_SIZES:
            members = []
            for t in _interleave(checks.valid_triples(n)):
                base = checks.closed_form(*t)
                tag = "-".join(map(str, t))
                a = checks.relabel(base, _perm(rng, n))
                b = checks.relabel(base, _perm(rng, n))
                members.append({"triple": t, "a": a, "b": b,
                                "file_a": _write(workdir, f"{tag}-a.json", a),
                                "file_b": _write(workdir, f"{tag}-b.json", b)})
            invariants = [checks.invariant(m["a"]) for m in members]
            for i, m in enumerate(members):
                # the next member with a different invariant, so the
                # checker can prove the pair non-isomorphic
                m["partner"] = next(
                    (i + j) % len(members) for j in range(1, len(members))
                    if invariants[(i + j) % len(members)] != invariants[i])
            classes.append((n, members))
        return {"classes": classes}
    if name == "verify-untrusted":
        classes = []
        for n in VERIFY_SIZES:
            cases = []
            for t in _interleave(checks.valid_triples(n)):
                tag = "-".join(map(str, t))
                ok = checks.relabel(checks.closed_form(*t), _perm(rng, n))
                swap = _swap_corrupted(rng, ok)
                nonbij = _nonbijective(rng, ok)
                cases.append([(kind, table, _write(workdir, f"{tag}-{kind}.json", table))
                              for kind, table in (("ok", ok), ("witness", swap),
                                                  ("nonbijective", nonbij))])
            classes.append((n, cases))
        base = checks.nonabelian_witness(WITNESS_M)
        witnesses = []
        for i in range(WITNESS_COPIES):
            table = checks.relabel(base, _perm(rng, len(base)))
            witnesses.append(("ok", table, _write(workdir, f"nonabelian-{i}.json", table)))
        return {"classes": classes, "witnesses": witnesses}
    if name == "members-large":
        members = []
        for t in LARGE_TRIPLES:
            n = t[0] * t[1]
            members.append({"triple": t,
                            "table": checks.relabel(checks.closed_form(*t), _perm(rng, n))})
        return {"members": members}
    if name == "oracle":
        small = list(ORACLE_SMALL)
        rng.shuffle(small)
        return {"small": small}
    raise ValueError(f"unknown workload {name!r}")


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


class Workload:
    def __init__(self, name, spec, workdir):
        self.name = name
        self.spec = spec
        self.workdir = workdir
        # A sweep is the rounds that together run every input once; a run
        # stops only at a sweep boundary, so every run has the same op mix.
        self.rounds_per_sweep = {"oracle": len(ORACLE_FIVE),
                                 "members-large": len(LARGE_TRIPLES)}.get(name, 1)
        self._memo = {}
        if name == "members-large":
            # Trusted set-up through the public Solution: validation is
            # measured by the two CLI workloads, not here.
            for m in spec["members"]:
                rows = tuple(tuple(row) for row in m["table"])
                m["solution"] = core.Solution(len(rows), rows, core.tau_from_sigma(rows))

    def warmup(self):
        """Cheap calls on every path the rounds take, so lazy set-up is done."""
        tiny = checks.closed_form(1, 4, 2)
        path = _write(self.workdir, "warmup.json", tiny)
        if self.name == "members-cli":
            for argv in (["construct", "1", "4", "2"], ["classify", path], ["aut", path],
                         ["iso", path, path]):
                _cli(argv)
        elif self.name == "verify-untrusted":
            _cli(["verify", path])
        elif self.name == "members-large":
            rows = tuple(tuple(r) for r in tiny)
            s = core.Solution(4, rows, core.tau_from_sigma(rows))
            classify.recover_params(s)
            retract.mpl(s)
            classify.enumerate_family(1000)
        else:
            classify.exhaustive_enumerate(3, abelian=True)

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def round(self, k):
        return getattr(self, "_round_" + self.name.replace("-", "_"))(k)

    def _round_members_cli(self, k):
        ops = []
        for n, members in self.spec["classes"]:
            m = members[k % len(members)]
            t, p = m["triple"], members[m["partner"]]
            ops += [
                Op("construct", n, lambda t=t: _cli(["construct", *map(str, t)]),
                   lambda res, t=t: checks.check_construct(res, t)),
                Op("classify", n, lambda m=m: _cli(["classify", m["file_a"]]),
                   lambda res, m=m: checks.check_classify(res, m["triple"], m["a"])),
                Op("aut", n, lambda m=m: _cli(["aut", m["file_a"]]),
                   lambda res, t=t: checks.check_aut(res, t)),
                Op("iso", n, lambda m=m: _cli(["iso", m["file_a"], m["file_b"]]),
                   lambda res, m=m: checks.check_iso(res, m["a"], m["b"], True)),
                Op("iso", n, lambda m=m, p=p: _cli(["iso", m["file_a"], p["file_a"]]),
                   lambda res, m=m, p=p: checks.check_iso(res, m["a"], p["a"], False)),
            ]
        return ops

    def _round_verify_untrusted(self, k):
        ops = []
        cases = [(n, c[k % len(c)]) for n, c in self.spec["classes"]]
        witnesses = self.spec["witnesses"]
        cases.append((2 * WITNESS_M, [witnesses[k % len(witnesses)]]))
        for n, group in cases:
            for expect, table, path in group:
                kind = "verify-ok" if expect == "ok" else f"verify-{expect}"
                ops.append(Op(kind, n, lambda path=path: _cli(["verify", path]),
                              lambda res, t=table, e=expect: checks.check_verify(res, t, e)))
        return ops

    def _round_members_large(self, k):
        m = self.spec["members"][k % len(self.spec["members"])]
        s, t = m["solution"], m["triple"]
        n = ENUMERATE_NS[k % len(ENUMERATE_NS)]
        expected_level = self._once(("level", t), lambda: checks.level(m["table"]))
        return [
            Op("recover", s.n, lambda: classify.recover_params(s),
               lambda res: checks.check_recover(res, t)),
            Op("mpl", s.n, lambda: retract.mpl(s),
               lambda res: checks.check_mpl(res, expected_level)),
            Op("enumerate", n, lambda: classify.enumerate_family(n),
               lambda res: checks.check_enumerate(res, n)),
        ]

    def _round_oracle(self, k):
        searches = [*self.spec["small"], ORACLE_FIVE[k % len(ORACLE_FIVE)]]
        return [
            Op("exhaustive", n,
               lambda n=n, f=flags: classify.exhaustive_enumerate(
                   n, indecomposable="indecomposable" in f, abelian="abelian" in f,
                   mpl_le_2="mpl2" in f),
               lambda res, n=n, f=flags: self._once(
                   ("oracle", n, f, tuple(s.sigma for s in res)),
                   lambda: checks.check_oracle(res, n, f)))
            for n, flags in searches
        ]


def build(name, seed, workdir):
    return Workload(name, generate(name, seed, workdir), workdir)
