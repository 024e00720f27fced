"""JSON command-line interface.

Commands: construct, verify, classify, iso, aut, count, enumerate,
example. Results go to stdout as JSON, human summaries to stderr with
--verbose. Exit codes: 0 success (or isomorphic), 1 negative verdict
(axiom failure, ineligible, not isomorphic, invalid or out-of-bound
parameters), 2 usage or input errors, 130 interrupted (Ctrl-C) in the
ybe-lab entry point main; run lets KeyboardInterrupt through.

classify, iso and aut compute one certificate per file, at load
(_certify): when it passes, the file is a relabeled family member and so
a solution, with no axiom scan, and the command reuses its outcome. iso
of two eligible files compares their triples, and aut reads the order
and invariant factors off the triple, building the group only for
--elements. Any other file is checked by solution_from_table and handled
as before: the same exit code, stdout and exception type.
"""

import argparse
import dataclasses
import functools
import json
import sys

from .aut import aut_c_invariant_factors, automorphism_group
from .classify import (
    DEFAULT_ORACLE_BOUND,
    ClassifyOutcome,
    are_isomorphic,
    count_cyclic,
    enumerate_family,
    exhaustive_enumerate,
    explicit_iso_to_c,
    family_count,
    iso_from_outcomes,
)
from .construct import build_c, build_nonabelian_example
from .core import (
    Solution,
    rows_from_table,
    solution_from_table,
    solution_to_json,
    table_from_json,
    verify_solution,
)
from .errors import (
    NotAbelian,
    NotIndecomposable,
    NotMplAtMost2,
    StructureViolation,
    YbeError,
)
from .perm import invariant_factors

FILTER_NAMES = {"indecomposable", "abelian", "mpl2"}


def _print_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _certify(n, sigma) -> tuple[Solution, ClassifyOutcome | None]:
    """The Solution of a table from outside, and its outcome when eligible.

    The certificate decides the axioms: rows_from_table checks the rows,
    and a passing explicit_iso_to_c proves the table a relabeled family
    member, hence a solution (core module docstring). Only a table it
    refuses runs solution_from_table's axiom check, which raises on a
    non-solution as it always has; on a solution the outcome is None, and
    the command raises or searches on its own.
    """
    sol = Solution(n, rows_from_table(n, sigma))
    try:
        return sol, explicit_iso_to_c(sol)
    except (NotIndecomposable, NotAbelian, NotMplAtMost2, StructureViolation):
        pass
    return solution_from_table(n, sol.sigma), None


def _load_certified(path: str) -> tuple[Solution, ClassifyOutcome | None]:
    return _certify(*table_from_json(_read_source(path)))


def _note(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


def cmd_construct(args) -> int:
    sol = build_c((args.n1, args.n2, args.r))
    print(solution_to_json(sol))
    _note(args, f"built family member ({args.n1},{args.n2},{args.r}) on {sol.n} points")
    return 0


def cmd_verify(args) -> int:
    _, sigma = table_from_json(_read_source(args.file))
    report = verify_solution(sigma)
    _print_json({**dataclasses.asdict(report), "ok": report.ok})
    _note(args, "all axioms hold" if report.ok else "axiom failure")
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    sol, outcome = _load_certified(args.file)
    if outcome is None:
        outcome = explicit_iso_to_c(sol)  # raises, as on any ineligible input
    p = outcome.params
    _print_json({"n1": p.n1, "n2": p.n2, "r": p.r, "phi": list(outcome.phi)})
    _note(args, f"isomorphic to family member ({p.n1},{p.n2},{p.r})")
    return 0


def cmd_iso(args) -> int:
    s1, o1 = _load_certified(args.file1)
    s2, o2 = _load_certified(args.file2)
    if o1 is None or o2 is None:
        phi = are_isomorphic(s1, s2)
    else:
        phi = iso_from_outcomes(o1, o2)
    if phi is None:
        _print_json({"isomorphic": False})
        _note(args, "not isomorphic")
        return 1
    _print_json({"isomorphic": True, "phi": list(phi)})
    _note(args, "isomorphic")
    return 0


def cmd_aut(args) -> int:
    sol, outcome = _load_certified(args.file)
    if outcome is not None and not args.elements:
        # Aut of an eligible solution is regular abelian (the paper): its
        # order is n, and its invariant factors are the triple's
        order, factors = sol.n, list(aut_c_invariant_factors(outcome.params))
    else:
        g = automorphism_group(sol)
        order = len(g.elements)
        try:
            # invariant_factors runs the abelianness test itself and reads
            # each element's order off one cycle per orbit
            factors = list(invariant_factors(g))
        except NotAbelian:
            factors = None
    out = {
        "order": order,
        "abelian": factors is not None,
        "invariant_factors": factors,
        # cyclic means at most one invariant factor
        "cyclic": factors is not None and len(factors) <= 1,
    }
    if args.elements:
        out["elements"] = [list(p) for p in g.elements]
    _print_json(out)
    _note(args, f"automorphism group of order {order}")
    return 0


def cmd_count(args) -> int:
    k = count_cyclic(args.n)
    count = k if args.cyclic else family_count(k)
    _print_json({"n": args.n, "k": k, "count": count})
    return 0


def cmd_enumerate(args) -> int:
    if args.exhaustive:
        flags = set(args.filter.split(",")) - {""} if args.filter else set()
        unknown = flags - FILTER_NAMES
        if unknown:
            raise ValueError(f"unknown filter names: {sorted(unknown)}")
        sols = exhaustive_enumerate(
            args.n,
            indecomposable="indecomposable" in flags,
            abelian="abelian" in flags,
            mpl_le_2="mpl2" in flags,
            max_n=args.max_n,
        )
        print("[" + ",".join(solution_to_json(s) for s in sols) + "]")
        _note(args, f"{len(sols)} isomorphism classes on {args.n} points")
    else:
        if args.filter:
            raise ValueError("--filter requires --exhaustive")
        params = enumerate_family(args.n)
        _print_json([{"n1": p.n1, "n2": p.n2, "r": p.r} for p in params])
        _note(args, f"{len(params)} family members on {args.n} points")
    return 0


def cmd_example(args) -> int:
    sol = build_nonabelian_example(args.n)
    print(solution_to_json(sol))
    _note(args, f"non-abelian witness on {sol.n} points")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybe-lab",
        description="Finite involutive Yang-Baxter solutions of level <= 2: "
        "construct, verify, classify, count, enumerate.",
    )
    parser.add_argument("--verbose", action="store_true", help="summaries on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the family member C(n1,n2,r)")
    p.add_argument("n1", type=_positive_int)
    p.add_argument("n2", type=_positive_int)
    p.add_argument("r", type=_nonneg_int)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the solution axioms of a table")
    p.add_argument("file", help="solution JSON file, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="recover family parameters and certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("iso", help="decide isomorphism of two solutions")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("aut", help="automorphism group of a solution")
    p.add_argument("file")
    p.add_argument("--elements", action="store_true", help="include all elements")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("count", help="count family members on n points")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--cyclic", action="store_true", help="cyclic-group members only")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list family members, or all solutions")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--exhaustive", action="store_true", help="brute-force all classes")
    p.add_argument(
        "--max-n", type=_positive_int, default=DEFAULT_ORACLE_BOUND, dest="max_n"
    )
    p.add_argument(
        "--filter",
        default="",
        help="comma-separated: indecomposable,abelian,mpl2 (with --exhaustive)",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("example", help="built-in witness constructions")
    p.add_argument("kind", choices=["nonabelian"])
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=cmd_example)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except YbeError as exc:
        _print_json({"error": type(exc).__name__, "detail": str(exc)})
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    main()
