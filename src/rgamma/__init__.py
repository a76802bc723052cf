"""Complete subalgebras of C[[t]] classified by their order semigroup.

The pipeline: a numerical semigroup fixes a normal-form template for
subalgebra generators; substituting the template into deceptive binomials
and reducing yields the defining equations of the moduli variety; greedy
linear elimination usually exhibits that variety as an affine space.  A
brute-force linear-algebra oracle cross-checks everything numerically.
"""

from .errors import (
    ArityMismatch,
    DomainError,
    EmptyInput,
    InvalidIndices,
    ModulusMismatch,
    NonCoprimeGenerators,
    NonPositiveGenerator,
    NotInVariety,
    NotNormalForm,
    NotRepresentable,
    OrderZeroGenerator,
    PresentationMismatch,
    UnboundVariable,
    UnknownVariable,
    WrongGeneratorCount,
    ZeroPolynomial,
)
from .symcore import Poly, Series
from .semigroup import (
    NumericalSemigroup,
    PlaneCriterionReport,
    from_generators,
    is_plane_semigroup,
)
from .normalform import (
    CoefficientPoint,
    NormalFormTemplate,
    build_template,
    instantiate,
    is_normal_form,
)
from .deceptive import (
    DeceptiveBinomial,
    GenMonomial,
    ThreeGenIdecGenerators,
    enumerate_sdec_below_conductor,
    generator_variable_names,
    idec_generators_3gen,
    is_deceptive,
)
from .reduction import (
    ReductionContext,
    ReductionStep,
    ReductionTrace,
    phi_eval,
    reduce,
    reduce_subset,
)
from .variety import (
    EliminationResult,
    Equation,
    MembershipReport,
    PlaneStratumReport,
    SolvedVariable,
    VarietyPresentation,
    defining_equations,
    eliminate_linear,
    membership,
    plane_test_3gen,
    predicted_dim_single_binomial,
)
from .oracle import (
    RowEchelonBasis,
    canonical_normal_form,
    echelon_basis,
    subalgebra_closure_semigroup,
    verify_point,
)

__all__ = [
    "ArityMismatch",
    "CoefficientPoint",
    "DeceptiveBinomial",
    "DomainError",
    "EliminationResult",
    "EmptyInput",
    "Equation",
    "InvalidIndices",
    "GenMonomial",
    "MembershipReport",
    "ModulusMismatch",
    "NonCoprimeGenerators",
    "NonPositiveGenerator",
    "NormalFormTemplate",
    "NotInVariety",
    "NotNormalForm",
    "NotRepresentable",
    "NumericalSemigroup",
    "OrderZeroGenerator",
    "PlaneCriterionReport",
    "PlaneStratumReport",
    "Poly",
    "PresentationMismatch",
    "ReductionContext",
    "ReductionStep",
    "ReductionTrace",
    "RowEchelonBasis",
    "Series",
    "SolvedVariable",
    "ThreeGenIdecGenerators",
    "UnboundVariable",
    "UnknownVariable",
    "VarietyPresentation",
    "WrongGeneratorCount",
    "ZeroPolynomial",
    "build_template",
    "canonical_normal_form",
    "defining_equations",
    "echelon_basis",
    "eliminate_linear",
    "enumerate_sdec_below_conductor",
    "from_generators",
    "generator_variable_names",
    "idec_generators_3gen",
    "instantiate",
    "is_deceptive",
    "is_normal_form",
    "is_plane_semigroup",
    "membership",
    "phi_eval",
    "plane_test_3gen",
    "predicted_dim_single_binomial",
    "reduce",
    "reduce_subset",
    "subalgebra_closure_semigroup",
    "verify_point",
]
