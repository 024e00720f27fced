"""Retraction, multipermutation level, and the level-2 predicates.

The retraction and both predicates work on class ids, read from the
Solution's one kept partition (core.Solution.classes: perm.class_ids,
numbered by first occurrence, computed on first read), and ints are
compared, not whole rows, so each is O(n^2) and none numbers the rows
again. The level tests read the ids along one row per class with
perm.precompose, in C. mpl_at_most_2_on_classes is the level-2 test on
ids a caller already has, for classify's parameter recovery.
"""

from dataclasses import dataclass

from .core import Solution
from .errors import CarrierTooSmall
from .perm import precompose


@dataclass(frozen=True)
class RetractionResult:
    """Quotient solution plus the class index of every original point."""

    quotient: Solution
    projection: tuple[int, ...]


def retract(s: Solution) -> RetractionResult:
    """Collapse points with identical sigma rows.

    Classes are numbered by first occurrence, so the projection is
    deterministic. The quotient is read off the first point of each
    class: that equal rows give equal quotient rows, and that the quotient
    is a solution, are theorems (Etingof-Schedler-Soloviev), so neither is
    checked here; test_retract_is_well_defined checks both.
    """
    proj = s.classes
    first: dict[int, int] = {}
    for x, c in enumerate(proj):
        first.setdefault(c, x)
    reps = list(first.values())
    qrows = tuple(tuple(proj[s.sigma[x][y]] for y in reps) for x in reps)
    return RetractionResult(Solution(len(qrows), qrows), proj)


def mpl(s: Solution) -> int | None:
    """Multipermutation level: least m with m-fold retraction a singleton.

    Returns None when retraction stalls above one element (the solution is
    not a multipermutation solution). A singleton has level 0.
    """
    level = 0
    cur = s
    while cur.n > 1:
        nxt = retract(cur).quotient
        if nxt.n == cur.n:
            return None
        cur = nxt
        level += 1
    return level


def is_2_reductive(s: Solution) -> bool:
    """True iff sigma_{sigma_x(y)} = sigma_y for all x, y."""
    cid = s.classes
    # class ids along row x, one row per class, must read cid itself
    return all(precompose(row)(cid) == cid for row in dict(zip(cid, s.sigma)).values())


def is_mpl_at_most_2(s: Solution) -> bool:
    """Level <= 2 test by row equality: sigma_{sigma_y(x)} = sigma_{sigma_z(x)}.

    Needs n >= 2 (raises CarrierTooSmall otherwise); equivalent to
    mpl(s) <= 2 on that domain.
    """
    if s.n < 2:
        raise CarrierTooSmall("level-2 test needs at least two points")
    return mpl_at_most_2_on_classes(s.sigma, s.classes)


def mpl_at_most_2_on_classes(sigma, cid) -> bool:
    """is_mpl_at_most_2 on rows whose class ids (perm.class_ids) are known.

    For callers that hold the ids already (Solution.classes); n >= 2 is
    theirs to check.
    """
    # class ids along every row y, one row per class, must read as along row 0
    ref = precompose(sigma[0])(cid)
    return all(precompose(row)(cid) == ref for row in dict(zip(cid, sigma)).values())
