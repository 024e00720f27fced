"""Retraction, multipermutation level, and the level-2 predicates.

The retraction and both predicates work on class ids: each row is hashed
once to an int numbered by first occurrence, and ints are compared, not
whole rows, so each is O(n^2). mpl_at_most_2_on_classes is the level-2
test on ids a caller already has, for classify's parameter recovery.
"""

from dataclasses import dataclass

from .core import Solution
from .errors import CarrierTooSmall
from .perm import class_ids


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
    proj = class_ids(s.sigma)
    first: dict[int, int] = {}
    for x, c in enumerate(proj):
        first.setdefault(c, x)
    reps = list(first.values())
    qrows = tuple(tuple(proj[s.sigma[x][y]] for y in reps) for x in reps)
    return RetractionResult(Solution(len(qrows), qrows), tuple(proj))


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
    cid = class_ids(s.sigma)
    # class ids along row x, one row per class, must read cid itself
    return all([cid[v] for v in row] == cid for row in dict(zip(cid, s.sigma)).values())


def is_mpl_at_most_2(s: Solution) -> bool:
    """Level <= 2 test by row equality: sigma_{sigma_y(x)} = sigma_{sigma_z(x)}.

    Needs n >= 2 (raises CarrierTooSmall otherwise); equivalent to
    mpl(s) <= 2 on that domain.
    """
    if s.n < 2:
        raise CarrierTooSmall("level-2 test needs at least two points")
    return mpl_at_most_2_on_classes(s.sigma, class_ids(s.sigma))


def mpl_at_most_2_on_classes(sigma, cid) -> bool:
    """is_mpl_at_most_2 on rows whose class ids (perm.class_ids) are known.

    For callers that hashed the rows already; n >= 2 is theirs to check.
    """
    # class ids along every row y, one row per class, must read as along row 0
    ref = [cid[v] for v in sigma[0]]
    return all([cid[v] for v in row] == ref for row in dict(zip(cid, sigma)).values())
