"""Retraction, multipermutation level, and the level-2 predicates."""

from dataclasses import dataclass

from .core import Solution, tau_from_sigma
from .errors import CarrierTooSmall


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
    class_of: dict = {}
    reps = []
    proj = []
    for x, row in enumerate(s.sigma):
        if row not in class_of:
            class_of[row] = len(reps)
            reps.append(x)
        proj.append(class_of[row])
    qrows = tuple(tuple(proj[s.sigma[x][y]] for y in reps) for x in reps)
    return RetractionResult(Solution(len(reps), qrows, tau_from_sigma(qrows)), tuple(proj))


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
    for x in range(s.n):
        row = s.sigma[x]
        for y in range(s.n):
            if s.sigma[row[y]] != s.sigma[y]:
                return False
    return True


def is_mpl_at_most_2(s: Solution) -> bool:
    """Level <= 2 test by row equality: sigma_{sigma_y(x)} = sigma_{sigma_z(x)}.

    Needs n >= 2 (raises CarrierTooSmall otherwise); equivalent to
    mpl(s) <= 2 on that domain.
    """
    if s.n < 2:
        raise CarrierTooSmall("level-2 test needs at least two points")
    for x in range(s.n):
        ref = s.sigma[s.sigma[0][x]]
        for y in range(1, s.n):
            if s.sigma[s.sigma[y][x]] != ref:
                return False
    return True
