"""Golden CLI cases: fixed inputs whose stdout and exit code are pinned.

tests/data/golden_cli.json holds the exit code and stdout of every case
built here; test_cli.py::test_golden_outputs replays the cases against
it. Inputs are relabeled family members up to 24 points (one seed), the
non-abelian witness, the LEVEL3 and STALLED fixtures, a swap-corrupted
member and malformed files. The automorphism groups of two decomposable
solutions, the trivial one on 4 points and the permutation solution
sigma_x = (0 1 2)(3 4) on 6 points, pin the search fallback of `aut`. The exhaustive oracle's listings are pinned
for n = 1..4 under every subset of its filters. Regenerate the fixture
only when an output change is intended, and say so in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from helpers import LEVEL3, STALLED, relabel, swap_corrupted
from ybe_lab import cli
from ybe_lab.classify import enumerate_family
from ybe_lab.construct import build_c, build_nonabelian_example

FIXTURE = Path(__file__).with_name("data") / "golden_cli.json"
SEED = 20261018
MAX_POINTS = 24
FILTERS = ("indecomposable", "abelian", "mpl2")
# sigma_x = f for every x, with f = (0 1 2)(3 4) on 6 points
PERMUTATION6 = [[1, 2, 0, 4, 3, 5]] * 6
MALFORMED = {
    "truncated": '{"n":2,"sigma":[[1,0],[1',
    "not-square": '{"n":2,"sigma":[[1,0],[0]]}',
    "non-int-entry": '{"n":2,"sigma":[[1,"0"],[1,0]]}',
}


def _relabeled(rng, sigma):
    g = list(range(len(sigma)))
    rng.shuffle(g)
    return relabel(sigma, g)


def _dump(table) -> str:
    return json.dumps({"n": len(table), "sigma": table}, separators=(",", ":"))


def inputs() -> dict[str, str]:
    """Input file name -> file text, the same on every call."""
    rng = random.Random(SEED)
    files = {}
    for n in range(1, MAX_POINTS + 1):
        for p in enumerate_family(n):
            tag = "m-{}-{}-{}".format(*p)
            sigma = build_c(p).sigma
            files[f"{tag}-a.json"] = _dump(_relabeled(rng, sigma))
            files[f"{tag}-b.json"] = _dump(_relabeled(rng, sigma))
    witness = _relabeled(rng, build_nonabelian_example(3).sigma)
    files["witness.json"] = _dump(witness)
    files["level3.json"] = _dump(LEVEL3)
    files["stalled.json"] = _dump(STALLED)
    files["corrupt.json"] = _dump(swap_corrupted(rng, _relabeled(rng, build_c((2, 8, 2)).sigma)))
    for name, text in MALFORMED.items():
        files[f"malformed-{name}.json"] = text
    files["trivial4.json"] = _dump([list(range(4))] * 4)
    files["permutation6.json"] = _dump(PERMUTATION6)
    return files


def cases() -> list[list[str]]:
    """Argument lists; file arguments are names from inputs()."""
    out = []
    previous = {}
    for n in range(1, MAX_POINTS + 1):
        for p in enumerate_family(n):
            tag = "m-{}-{}-{}".format(*p)
            a, b = f"{tag}-a.json", f"{tag}-b.json"
            out.append(["construct", *map(str, p)])
            out += [["verify", a], ["classify", a], ["aut", a], ["aut", a, "--elements"]]
            out.append(["iso", a, b])
            if n in previous:
                out.append(["iso", a, previous[n]])
            previous[n] = a
    for name in ("witness", "level3", "stalled", "corrupt", *(f"malformed-{m}" for m in MALFORMED)):
        f = f"{name}.json"
        out += [["verify", f], ["classify", f], ["aut", f], ["aut", f, "--elements"], ["iso", f, f]]
    for n in range(1, 5):
        for k in range(len(FILTERS) + 1):
            for subset in itertools.combinations(FILTERS, k):
                argv = ["enumerate", str(n), "--exhaustive"]
                out.append(argv + ["--filter", ",".join(subset)] if subset else argv)
    for f in ("trivial4.json", "permutation6.json"):
        out += [["aut", f], ["aut", f, "--elements"]]
    return out


def run_case(argv, directory: Path) -> tuple[int, str]:
    """Exit code and stdout of one case, with file names resolved in directory."""
    resolved = [str(directory / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(resolved)
    return code, buf.getvalue()


def write_inputs(directory: Path) -> None:
    for name, text in inputs().items():
        (directory / name).write_text(text, encoding="utf-8")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        records = []
        for argv in cases():
            code, stdout = run_case(argv, directory)
            records.append({"argv": argv, "code": code, "stdout": stdout})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}", file=sys.stderr)


if __name__ == "__main__":
    main()
