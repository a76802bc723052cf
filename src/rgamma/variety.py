"""The moduli variety of subalgebras with a prescribed order semigroup.

Subalgebras of C[[t]] whose orders form Gamma correspond, through the
normal-form template, to points of an affine space of dimension M cut out
by explicit equations: substitute the symbolic generators into each
deceptive binomial of weighted degree below the conductor and reduce; the
surviving gap coefficients must vanish.  That polynomial system is the
variety presentation.

Many of those equations are linear in some template variable with a
constant coefficient, so a greedy substitution pass frequently solves the
whole system and exhibits the variety as an affine space; the dimension
bookkeeping and the stuck case (residual equations) are both reported.

For three-generator semigroups passing the plane criterion there is a
finer question: which points are algebras of plane curve branches.  The
test reduces phi(y^k1 - x^k0) against the first two generators only and
asks for order exactly v_2.

Membership and the plane test never evaluate the symbolic equations: they
reduce at the point itself, on the integer generators of
normalform.integer_generators (see reduction.IntegerReduction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .deceptive import (
    DeceptiveBinomial,
    enumerate_sdec_below_conductor,
    generator_variable_names,
    idec_generators_3gen,
)
from .errors import NotInVariety, PresentationMismatch, WrongGeneratorCount
from .normalform import (
    CoefficientPoint,
    NormalFormTemplate,
    build_template,
    integer_generators,
)
from .reduction import IntegerReduction, ReductionContext
from .semigroup import NumericalSemigroup, is_plane_semigroup
from .symcore import Poly, Scalar, _norm_scalar


@dataclass(frozen=True)
class Equation:
    """One defining equation: the coefficient of t^gap left over after
    reducing phi(source)."""

    poly: Poly
    source: DeceptiveBinomial
    gap: int

    def tag(self) -> str:
        return f"equation(gap {self.gap})"

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.to_json_dict(),
            "gap": self.gap,
            "poly": str(self.poly),
        }


@dataclass(frozen=True)
class VarietyPresentation:
    semigroup: NumericalSemigroup
    template: NormalFormTemplate
    binomials: tuple[DeceptiveBinomial, ...]
    equations: tuple[Equation, ...]
    ambient_dim: int

    def to_json_dict(self) -> dict:
        return {
            "semigroup": list(self.semigroup.generators),
            "ambient_dim": self.ambient_dim,
            "variables": list(self.template.variables),
            "binomials": [b.to_json_dict() for b in self.binomials],
            "equations": [e.to_json_dict() for e in self.equations],
        }


def defining_equations(gamma: NumericalSemigroup) -> VarietyPresentation:
    """Reduce every deceptive binomial below the conductor and collect the
    surviving gap coefficients, deduplicating identical polynomials."""
    template = build_template(gamma)
    binomials = enumerate_sdec_below_conductor(gamma)
    names = generator_variable_names(len(gamma.generators))
    ctx = ReductionContext(gamma, template.generators, names)

    equations: list[Equation] = []
    seen: set[Poly] = set()
    for binomial in binomials:
        trace = ctx.reduce(ctx.phi(binomial.as_poly(names)))
        for gap, poly in trace.reduced.items():
            if poly in seen:
                continue
            seen.add(poly)
            equations.append(Equation(poly, binomial, gap))
    return VarietyPresentation(
        semigroup=gamma,
        template=template,
        binomials=binomials,
        equations=tuple(equations),
        ambient_dim=gamma.ambient_dimension(),
    )


@dataclass(frozen=True)
class SolvedVariable:
    """Record of one elimination: variable = factor * (equation minus its
    linear term), already back-substituted to free variables only."""

    name: str
    factor: Fraction
    expression: Poly
    gap: int

    def to_json_dict(self) -> dict:
        return {
            "var": self.name,
            "factor": str(self.factor),
            "expr": str(self.expression),
            "gap": self.gap,
        }


@dataclass(frozen=True)
class EliminationResult:
    solved: tuple[SolvedVariable, ...]
    residual: tuple[Equation, ...]
    ambient_dim: int

    @property
    def affine_dim(self) -> Optional[int]:
        """Dimension when the variety is exhibited as an affine space;
        None while residual equations remain unsolved."""
        if self.residual:
            return None
        return self.ambient_dim - len(self.solved)

    def to_json_dict(self) -> dict:
        return {
            "solved": [s.to_json_dict() for s in self.solved],
            "residual": [e.to_json_dict() for e in self.residual],
            "affine_dim": self.affine_dim,
        }


def eliminate_linear(
    presentation: VarietyPresentation,
    variable_order: Optional[Sequence[str]] = None,
    equation_order: Optional[Sequence[int]] = None,
) -> EliminationResult:
    """Greedy elimination of variables occurring linearly with a constant
    coefficient.

    Equations are scanned in presentation order and variables within each
    equation from the deepest template slot backwards, unless explicit
    orders are given (permutations used by the determinism checks).  Each
    hit removes the equation, substitutes everywhere, and restarts the scan.
    """
    template = presentation.template
    if variable_order is None:
        variables = list(reversed(template.variables))
    else:
        variables = [template.resolve(v) for v in variable_order]
        if sorted(variables) != sorted(template.variables):
            raise ValueError("variable_order must permute the template variables")

    work: list[Equation] = list(presentation.equations)
    if equation_order is not None:
        if sorted(equation_order) != list(range(len(work))):
            raise ValueError("equation_order must permute the equation indices")
        work = [work[i] for i in equation_order]

    solved: list[SolvedVariable] = []
    while True:
        pivots = (
            (equation, var, extracted)
            for equation in work
            for var in variables
            if (extracted := equation.poly.extract_linear(var)) is not None
        )
        hit = next(pivots, None)
        if hit is None:
            break
        equation, var, (alpha, rest) = hit
        factor = Fraction(-1) / alpha
        expression = rest.scale(factor)
        solved = [
            replace(s, expression=s.expression.substitute(var, expression))
            for s in solved
        ]
        solved.append(SolvedVariable(var, factor, expression, equation.gap))
        substituted = (
            replace(other, poly=other.poly.substitute(var, expression))
            for other in work
            if other is not equation
        )
        work = [other for other in substituted if not other.poly.is_zero]

    return EliminationResult(
        solved=tuple(solved),
        residual=tuple(work),
        ambient_dim=presentation.ambient_dim,
    )


def predicted_dim_single_binomial(gamma: NumericalSemigroup) -> Optional[int]:
    """Closed-form dimension when exactly one deceptive binomial exists
    below the conductor: the ambient dimension minus the number of gaps
    above its weighted degree.  None otherwise."""
    binomials = enumerate_sdec_below_conductor(gamma)
    if len(binomials) != 1:
        return None
    degree = binomials[0].degree
    return gamma.ambient_dimension() - len(gamma.gaps_above(degree))


@dataclass(frozen=True)
class Violation:
    equation: Equation
    value: Scalar


@dataclass(frozen=True)
class MembershipReport:
    in_variety: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "in_variety": self.in_variety,
            "violated": [
                {"gap": v.equation.gap, "value": str(v.value)}
                for v in self.violations
            ],
        }


def _point_reduction(
    gamma: NumericalSemigroup,
    presentation: Optional[VarietyPresentation],
    point: Union[CoefficientPoint, Mapping[str, Scalar]],
) -> tuple[VarietyPresentation, int, IntegerReduction]:
    # gamma's presentation, built unless given, and the integer generators
    # at the point with their scale D
    if presentation is None:
        presentation = defining_equations(gamma)
    elif presentation.semigroup != gamma:
        raise PresentationMismatch(
            f"the presentation is of {presentation.semigroup}, not {gamma}"
        )
    template = presentation.template
    if not isinstance(point, CoefficientPoint):
        point = template.point(point)
    scale, rows = integer_generators(template, point)
    return presentation, scale, IntegerReduction(template.semigroup, rows)


def _unscaled(value: int, scale: int, weight: int) -> Scalar:
    # a coefficient of this weight at the point, from its integer value
    return _norm_scalar(Fraction(value, scale**weight)) if scale > 1 else value


def _membership(
    presentation: VarietyPresentation, scale: int, red: IntegerReduction
) -> MembershipReport:
    reduced: dict[DeceptiveBinomial, list[int]] = {}
    violations = []
    for equation in presentation.equations:
        source = equation.source
        if source not in reduced:
            binomial = red.binomial(source.lhs.exponents, source.rhs.exponents)
            reduced[source] = red.reduce(binomial)
        value = reduced[source][equation.gap]
        if value:
            weight = equation.gap - source.degree
            violations.append(Violation(equation, _unscaled(value, scale, weight)))
    return MembershipReport(not violations, tuple(violations))


def membership(
    gamma: NumericalSemigroup,
    point: Union[CoefficientPoint, Mapping[str, Scalar]],
    presentation: Optional[VarietyPresentation] = None,
) -> MembershipReport:
    """Evaluate every defining equation at a total coefficient point.

    The value of the equation (source, gap) is the coefficient of t^gap
    left after reducing phi(source) at the point, which is what evaluating
    its polynomial gives, since reduction commutes with specialising the
    coefficients.
    """
    return _membership(*_point_reduction(gamma, presentation, point))


@dataclass(frozen=True)
class PlaneStratumReport:
    is_plane_point: bool
    reduced_order: Optional[int]
    leading_coefficient: Scalar
    criterion_is_plane: bool

    def to_json_dict(self) -> dict:
        return {
            "is_plane_point": self.is_plane_point,
            "reduced_order": self.reduced_order,
            "leading_coefficient": str(self.leading_coefficient),
            "criterion_is_plane": self.criterion_is_plane,
        }


def plane_test_3gen(
    gamma: NumericalSemigroup,
    point: Union[CoefficientPoint, Mapping[str, Scalar]],
    presentation: Optional[VarietyPresentation] = None,
) -> PlaneStratumReport:
    """Whether the subalgebra at a variety point is generated by its first
    two normal-form generators (a plane branch algebra).

    The witness is red restricted to <v_0, v_1> applied to
    phi(y^k1 - x^k0): the point is plane exactly when the semigroup passes
    the plane criterion and the reduced series has order v_2 (its leading
    coefficient is then the value the stratum inequality must keep nonzero).
    The point must lie in the variety, and a given presentation be gamma's.
    """
    vs = gamma.generators
    if len(vs) != 3:
        raise WrongGeneratorCount(
            f"the plane stratum test needs 3 generators, got {len(vs)}"
        )
    presentation, scale, red = _point_reduction(gamma, presentation, point)
    report = _membership(presentation, scale, red)
    if not report.in_variety:
        tags = ", ".join(v.equation.tag() for v in report.violations)
        raise NotInVariety(f"point violates {tags}")

    k0, k1 = idec_generators_3gen(gamma).ks[:2]
    series = red.reduce(red.binomial((0, k1, 0), (k0, 0, 0)), (0, 1))
    order = next((n for n, q in enumerate(series) if q), None)
    lead: Scalar = Fraction(0)
    if order == vs[2]:
        lead = _unscaled(series[order], scale, order - k0 * vs[0])

    criterion = is_plane_semigroup(gamma).is_plane
    return PlaneStratumReport(
        is_plane_point=criterion and order == vs[2],
        reduced_order=order,
        leading_coefficient=lead,
        criterion_is_plane=criterion,
    )
