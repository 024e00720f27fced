"""Finite indecomposable involutive Yang-Baxter solutions of level <= 2.

Construction, verification, isomorphism classification, counting,
enumeration and automorphism groups for the three-parameter family
C(n1, n2, r) covering every finite indecomposable involutive solution of
multipermutation level at most 2 whose permutation group is abelian,
plus brute-force oracles that cross-check all of it from first
principles.
"""

from .aut import (
    aut_c_closed_form,
    aut_c_invariant_factors,
    automorphism_group,
    is_aut_cyclic_c1nr,
)
from .classify import (
    ClassifyOutcome,
    are_isomorphic,
    count_cyclic,
    count_family,
    enumerate_family,
    exhaustive_enumerate,
    explicit_iso_to_c,
    recover_params,
)
from .construct import (
    CParams,
    build_c,
    build_nonabelian_example,
    c_params_valid,
    inverse_isotope,
    pi_isotope,
)
from .core import (
    Solution,
    VerifyReport,
    check_cycle_condition,
    solution_from_json,
    solution_from_table,
    solution_to_json,
    tau_from_sigma,
    verify_solution,
)
from .errors import (
    AxiomViolation,
    BoundExceeded,
    CarrierTooSmall,
    ConditionFailed,
    DegreeMismatch,
    InvalidParams,
    NotAbelian,
    NotBijectiveRow,
    NotIndecomposable,
    NotMplAtMost2,
    NotTwoReductive,
    SizeLimitExceeded,
    StructureViolation,
    YbeError,
)
from .perm import (
    Perm,
    PermGroup,
    compose,
    group_closure,
    invariant_factors,
    inverse,
    is_abelian,
    is_perm,
    order,
)
from .retract import (
    RetractionResult,
    is_2_reductive,
    is_mpl_at_most_2,
    mpl,
    retract,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "BoundExceeded",
    "CParams",
    "CarrierTooSmall",
    "ClassifyOutcome",
    "ConditionFailed",
    "DegreeMismatch",
    "InvalidParams",
    "NotAbelian",
    "NotBijectiveRow",
    "NotIndecomposable",
    "NotMplAtMost2",
    "NotTwoReductive",
    "Perm",
    "PermGroup",
    "RetractionResult",
    "SizeLimitExceeded",
    "Solution",
    "StructureViolation",
    "VerifyReport",
    "YbeError",
    "are_isomorphic",
    "aut_c_closed_form",
    "aut_c_invariant_factors",
    "automorphism_group",
    "build_c",
    "build_nonabelian_example",
    "c_params_valid",
    "check_cycle_condition",
    "compose",
    "count_cyclic",
    "count_family",
    "enumerate_family",
    "exhaustive_enumerate",
    "explicit_iso_to_c",
    "group_closure",
    "invariant_factors",
    "inverse",
    "inverse_isotope",
    "is_2_reductive",
    "is_abelian",
    "is_aut_cyclic_c1nr",
    "is_mpl_at_most_2",
    "is_perm",
    "mpl",
    "order",
    "pi_isotope",
    "recover_params",
    "retract",
    "solution_from_json",
    "solution_from_table",
    "solution_to_json",
    "tau_from_sigma",
    "verify_solution",
]
