"""Exception types raised by the library.

Every domain error derives from YbeError so callers (notably the CLI) can
map any negative verdict to a single failure path.
"""


class YbeError(Exception):
    """Base class for all domain errors."""


class DegreeMismatch(YbeError):
    """Permutations of different degrees were combined."""


class NotBijectiveRow(YbeError):
    """A sigma row is not a permutation of the carrier."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is not a bijection")


class AxiomViolation(YbeError):
    """A sigma table fails the solution axioms; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"table is not a solution: {report}")


class SizeLimitExceeded(YbeError):
    """A group closure or automorphism search passed its element bound."""


class NotAbelian(YbeError):
    """The permutation group of the solution is not abelian."""


class NotIndecomposable(YbeError):
    """The permutation group of the solution is not transitive."""


class NotMplAtMost2(YbeError):
    """The solution has multipermutation level greater than 2."""


class NotTwoReductive(YbeError):
    """The solution is not 2-reductive."""


class ConditionFailed(YbeError):
    """The isotope compatibility condition fails at a pair of points."""

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y
        super().__init__(f"isotope condition fails at pair ({x}, {y})")


class CarrierTooSmall(YbeError):
    """The operation needs at least two points."""


class InvalidParams(YbeError):
    """Parameter triple violates the family constraints."""


class StructureViolation(YbeError):
    """Solution data contradicts the structure theory it should satisfy."""


class BoundExceeded(YbeError):
    """Requested size is beyond the configured search bound."""
