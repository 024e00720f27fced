"""Generated inputs at the boundary: CLI texts, core tables, is_perm, class_ids.

Every CLI text ends in exit 0, 1 or 2 with no exception escaping run;
core.table_from_json parses every text as json.loads of the whole text
does, in solution_to_json's compact form too;
every core entry point returns or raises its documented errors;
perm.is_perm applies the entry rule that core's table validation does;
and perm.class_ids numbers rows as a whole-row dict does.
Needs hypothesis, which is not a declared dependency, so the module is
skipped without it. Runs are derandomized and keep to 1-4 points.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import class_ids_by_whole_rows, parse_outcome, table_by_json_loads  # noqa: E402
from ybe_lab.classify import enumerate_family  # noqa: E402
from ybe_lab.cli import run  # noqa: E402
from ybe_lab.construct import build_c  # noqa: E402
from ybe_lab.core import (  # noqa: E402
    Solution,
    check_cycle_condition,
    solution_from_table,
    table_from_json,
    tau_from_sigma,
    verify_solution,
)
from ybe_lab.errors import AxiomViolation, NotBijectiveRow  # noqa: E402
from ybe_lab.perm import class_ids, is_perm  # noqa: E402

FUZZ = hypothesis.settings(
    max_examples=120, derandomize=True, deadline=None, database=None
)

# entries a JSON table can carry: points, near-points, bools, floats,
# strings, null and nested lists
ENTRIES = st.one_of(
    st.integers(-1, 4),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from(["", "0", "a", "1x"]),  # st.text would build a unicode table
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
# solutions, so that the accepting paths are reached too
MEMBERS = [p for n in (1, 3, 4) for p in enumerate_family(n)]
VALID = [[[1, 0], [1, 0]]] + [[list(row) for row in build_c(p).sigma] for p in MEMBERS]


def _table(n):
    """n rows: all permutations (mostly no solution), or a mix of those
    with short or long rows, rows of arbitrary entries and non-lists."""
    perms = st.permutations(list(range(n))).map(list)
    mixed = st.one_of(perms, st.lists(ENTRIES, max_size=5), ENTRIES)
    return st.one_of(*(st.lists(row, min_size=n, max_size=n) for row in (perms, mixed)))


# strategies are built once per size: building them per draw costs more
# than the calls under test
SIZE = range(5)
TABLES = st.one_of(
    st.sampled_from(VALID),
    st.sampled_from(SIZE).flatmap({n: _table(n) for n in SIZE}.__getitem__),
)
# hypothesis draws the first choices of a range or list more often; these
# are rare choices put last
ONE_IN = {k: st.sampled_from([False] * (k - 1) + [True]) for k in (4, 5)}
SHAPES = st.sampled_from(["object"] * 12 + ["no n", "sigma not a list", "bare table"])
SEPARATORS = st.sampled_from([None, (",", ":")])
WRONG_N = st.one_of(
    st.integers(-1, 5), st.booleans(), st.sampled_from([1.0, "2", None])
)


def size_of(draw, table):
    """n as a JSON document might give it: mostly the number of rows."""
    return draw(WRONG_N) if draw(ONE_IN[4]) else len(table)


@st.composite
def documents(draw):
    table = draw(TABLES)
    doc = {"n": size_of(draw, table), "sigma": table}
    shape = draw(SHAPES)
    if shape == "no n":
        del doc["n"]
    elif shape == "sigma not a list":
        doc["sigma"] = draw(ENTRIES)
    elif shape == "bare table":
        doc = table
    # the default separators, or solution_to_json's compact ones
    text = json.dumps(doc, separators=draw(SEPARATORS))
    if draw(ONE_IN[5]):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run_on_stdin(command, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run([command, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@FUZZ
@hypothesis.given(documents(), st.sampled_from(["verify", "classify"]))
def test_cli_exits_0_1_or_2_on_any_text(text, command):
    code, out, err = run_on_stdin(command, text)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        json.loads(out)


@FUZZ
@hypothesis.given(documents())
def test_table_from_json_is_json_loads_of_the_whole_text(text):
    assert parse_outcome(table_from_json, text) == parse_outcome(table_by_json_loads, text)


@FUZZ
@hypothesis.given(TABLES, st.booleans(), st.data())
def test_core_entry_points_return_or_raise_documented_errors(table, wrap, data):
    # a directly built Solution is checked like its raw table
    s = Solution(len(table), tuple(table)) if wrap else table
    calls = (
        (verify_solution, ()),
        (check_cycle_condition, (NotBijectiveRow,)),
        (tau_from_sigma, (NotBijectiveRow,)),
    )
    for call, errors in calls:
        try:
            call(s)
        except (ValueError, *errors):
            pass
    n = size_of(data.draw, table)
    try:
        sol = solution_from_table(n, table)
    except (ValueError, NotBijectiveRow, AxiomViolation):
        return
    assert verify_solution(sol).ok and verify_solution(table).ok


@FUZZ
@hypothesis.given(
    st.one_of(
        st.integers(1, 5).flatmap(lambda k: st.permutations(list(range(k)))),
        st.lists(ENTRIES, min_size=1, max_size=5),
    )
)
def test_is_perm_is_the_table_rule_on_one_row(row):
    # rows of one or more points: the empty row is the permutation of no
    # points, while a table needs at least one row
    try:
        bijective = verify_solution([row] * len(row)).bijective_rows
    except ValueError:
        bijective = False
    assert is_perm(row) == bijective


@FUZZ
@hypothesis.given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.permutations(list(range(n))).map(tuple), min_size=1, max_size=16)
    )
)
def test_class_ids_is_the_whole_row_numbering(rows):
    # on n <= 4 points at most 4 images of 0 exist, so rows clash often
    assert class_ids(rows) == class_ids_by_whole_rows(rows)
