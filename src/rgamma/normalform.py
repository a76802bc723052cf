"""Normal forms for complete subalgebras of C[[t]] with a given semigroup.

A subalgebra with order semigroup Gamma = <v_0, ..., v_g> has, after a
change of coordinate, a unique generating tuple

    x_i(t) = t^{v_i} + sum over gaps delta > v_i of  coeff * t^delta,

taken mod t^c (conductor c); generators with v_i >= c collapse to the zero
series.  The template keeps those coefficients symbolic, one variable per
(generator, gap) slot, so the tuple of template generators is a point of an
affine space of dimension ambient_dimension(Gamma).

Variable naming: the canonical machine name for slot (i, delta) is
``g{i}d{delta}``; when there are at most 26 generators the display alias is
a letter per generator plus the gap (``a5`` for generator 0, gap 5), which
is also what rendering and JSON use.  Both spellings are accepted on input.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import ModulusMismatch, UnboundVariable, UnknownVariable
from .semigroup import NumericalSemigroup
from .symcore import Poly, Series

Scalar = Union[Fraction, int]


def template_modulus(gamma: NumericalSemigroup) -> int:
    # <1> has conductor 0 but truncated series need a positive modulus.
    return max(gamma.conductor, 1)


@dataclass(frozen=True)
class CoefficientPoint:
    """A total assignment of rational values to a template's variables."""

    values: tuple[tuple[str, Fraction], ...]

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.values)

    def __getitem__(self, name: str) -> Fraction:
        for key, value in self.values:
            if key == name:
                return value
        raise KeyError(name)

    def __str__(self) -> str:
        if not self.values:
            return "(no coefficients)"
        return ", ".join(f"{k}={v}" for k, v in self.values)


class NormalFormTemplate:
    """Symbolic normal-form generators for one semigroup."""

    def __init__(self, gamma: NumericalSemigroup):
        self.semigroup = gamma
        self.modulus = template_modulus(gamma)

        use_letters = len(gamma.generators) <= len(string.ascii_lowercase)
        self._slots: list[tuple[int, int]] = []
        self._display: dict[tuple[int, int], str] = {}
        self._resolve: dict[str, str] = {}
        self._canonical: dict[str, str] = {}
        generators: list[Series] = []
        for i, v in enumerate(gamma.generators):
            if v >= self.modulus:
                generators.append(Series.zero(self.modulus))
                continue
            coeffs: dict[int, Poly] = {v: Poly.const(1)}
            for delta in gamma.gaps_above(v):
                canonical = f"g{i}d{delta}"
                name = f"{string.ascii_lowercase[i]}{delta}" if use_letters else canonical
                self._slots.append((i, delta))
                self._display[(i, delta)] = name
                self._resolve[name] = name
                self._resolve[canonical] = name
                self._canonical[name] = canonical
                coeffs[delta] = Poly.variable(name)
            generators.append(Series(self.modulus, coeffs))
        self.generators: tuple[Series, ...] = tuple(generators)
        self.variables: tuple[str, ...] = tuple(self._display[s] for s in self._slots)

    def variable_name(self, i: int, delta: int) -> str:
        try:
            return self._display[(i, delta)]
        except KeyError:
            raise UnknownVariable(f"no template slot for generator {i}, gap {delta}")

    def canonical_name(self, name: str) -> str:
        """g{i}d{delta} spelling of a variable given in either spelling."""
        return self._canonical[self.resolve(name)]

    def resolve(self, name: str) -> str:
        try:
            return self._resolve[name]
        except KeyError:
            raise UnknownVariable(f"unknown template variable {name!r}")

    def point(
        self,
        assignment: Mapping[str, Scalar],
        fill_missing: bool = False,
    ) -> CoefficientPoint:
        """Build a total coefficient point.

        ``assignment`` may use display or canonical spellings.  Unknown names
        raise UnknownVariable; variables absent from the assignment raise
        UnboundVariable unless ``fill_missing`` sets them to 0.
        """
        resolved: dict[str, Fraction] = {}
        for name, value in assignment.items():
            display = self.resolve(name)
            if display in resolved:
                raise UnknownVariable(f"variable {name!r} bound twice")
            resolved[display] = Fraction(value)
        values = []
        for name in self.variables:
            if name in resolved:
                values.append((name, resolved.pop(name)))
            elif fill_missing:
                values.append((name, Fraction(0)))
            else:
                raise UnboundVariable(f"no value for template variable {name!r}")
        return CoefficientPoint(tuple(values))

    def zero_point(self) -> CoefficientPoint:
        return CoefficientPoint(tuple((name, Fraction(0)) for name in self.variables))

    def to_json_dict(self) -> dict:
        gens = []
        for i, v in enumerate(self.semigroup.generators):
            terms = [
                {"exp": delta, "var": self._display[(j, delta)]}
                for (j, delta) in self._slots
                if j == i
            ]
            gens.append({"lead": v, "terms": terms})
        return {"generators": gens, "variables": list(self.variables)}


def build_template(gamma: NumericalSemigroup) -> NormalFormTemplate:
    return NormalFormTemplate(gamma)


def instantiate(
    template: NormalFormTemplate, point: CoefficientPoint
) -> tuple[Series, ...]:
    """Numeric normal-form generators at a coefficient point."""
    values = point.as_dict()
    coeffs = [{v: Poly.const(1)} for v in template.semigroup.generators]
    for (i, delta), name in template._display.items():
        if name not in values:
            raise UnboundVariable(f"no value for template variable {name!r}")
        coeffs[i][delta] = Poly.const(values[name])
    return tuple(Series(template.modulus, c) for c in coeffs)


def integer_generators(
    template: NormalFormTemplate, point: CoefficientPoint
) -> tuple[int, tuple[list[int], ...]]:
    """The generators at a point as integer coefficient lists, through the
    torus action t -> D*t.

    With D the lcm of the point's denominators, x_i(D*t) / D^{v_i} is again
    monic and carries a_{i,delta} * D^(delta - v_i) at t^delta, an integer
    because delta > v_i.  Returns D and one list of length ``modulus`` per
    generator (all zero for a generator at or past the modulus).  By
    weighted homogeneity, a coefficient of weight w computed from these
    lists is D^w times its value at the point.
    """
    values = point.as_dict()
    slots = {}
    for slot, name in template._display.items():
        if name not in values:
            raise UnboundVariable(f"no value for template variable {name!r}")
        q = values[name]
        slots[slot] = q if isinstance(q, (int, Fraction)) else Fraction(q)
    scale = math.lcm(*(q.denominator for q in slots.values()))
    vs = template.semigroup.generators
    rows = tuple([0] * template.modulus for _ in vs)
    for row, v in zip(rows, vs):
        if v < template.modulus:
            row[v] = 1
    for (i, delta), q in slots.items():
        weight = delta - vs[i]
        rows[i][delta] = q.numerator * (scale // q.denominator) * scale ** (weight - 1)
    return scale, rows


def is_normal_form(
    series_list: Sequence[Series], gamma: NumericalSemigroup
) -> bool:
    """Shape check: one series per generator, each t^{v_i} + gap-supported
    tail (zero when v_i is at or past the modulus the series live in)."""
    if len(series_list) != len(gamma.generators):
        raise ValueError(
            f"expected {len(gamma.generators)} series, got {len(series_list)}"
        )
    modulus: Optional[int] = None
    for s in series_list:
        if modulus is None:
            modulus = s.modulus
        elif s.modulus != modulus:
            raise ModulusMismatch("normal-form series must share one modulus")

    for v, s in zip(gamma.generators, series_list):
        if v >= s.modulus:
            if not s.is_zero:
                return False
            continue
        if s.order() != v:
            return False
        if s.coefficient(v) != Poly.const(1):
            return False
        for exp in s.support():
            if exp == v:
                continue
            if exp <= v or exp not in gamma.gap_set:
                return False
    return True
