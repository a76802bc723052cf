"""Normal forms for complete subalgebras of C[[t]] with a given semigroup.

A subalgebra with order semigroup Gamma = <v_0, ..., v_g> has, after a
change of coordinate, a unique generating tuple

    x_i(t) = t^{v_i} + sum over gaps delta > v_i of  coeff * t^delta,

taken mod t^c (conductor c); generators with v_i >= c collapse to the zero
series.  The template is the table of those coefficients, one variable per
(generator, gap) slot, so the tuple of template generators is a point of an
affine space of dimension ambient_dimension(Gamma).  The symbolic
generators are needed only to derive the equations and are built on first
use; work at an explicit point reads the slots' values (``slot_values``).

Variable naming: the canonical machine name for slot (i, delta) is
``g{i}d{delta}``; when there are at most 26 generators the display alias is
a letter per generator plus the gap (``a5`` for generator 0, gap 5), which
is also what rendering and JSON use.  Both spellings are accepted on input.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

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
        return self.as_dict()[name]

    def __str__(self) -> str:
        if not self.values:
            return "(no coefficients)"
        return ", ".join(f"{k}={v}" for k, v in self.values)


class NormalFormTemplate:
    """The normal-form slots (i, delta) of one semigroup: one ordered map to
    display names, one map from either spelling back to the slot."""

    def __init__(self, gamma: NumericalSemigroup):
        self.semigroup = gamma
        self.modulus = template_modulus(gamma)

        use_letters = len(gamma.generators) <= len(string.ascii_lowercase)
        self._names: dict[tuple[int, int], str] = {}
        self._slot_of: dict[str, tuple[int, int]] = {}
        for i, v in enumerate(gamma.generators):
            for delta in gamma.gaps_above(v):
                canonical = f"g{i}d{delta}"
                name = f"{string.ascii_lowercase[i]}{delta}" if use_letters else canonical
                self._names[(i, delta)] = name
                self._slot_of[name] = self._slot_of[canonical] = (i, delta)
        self.variables: tuple[str, ...] = tuple(self._names.values())

    @functools.cached_property
    def generators(self) -> tuple[Series, ...]:
        """The symbolic generators x_i(t), built on first read."""
        coeffs = [{v: Poly.const(1)} for v in self.semigroup.generators]
        for (i, delta), name in self._names.items():
            coeffs[i][delta] = Poly.variable(name)
        return tuple(Series(self.modulus, c) for c in coeffs)

    def _slot(self, name: str) -> tuple[int, int]:
        try:
            return self._slot_of[name]
        except KeyError:
            raise UnknownVariable(f"unknown template variable {name!r}")

    def variable_name(self, i: int, delta: int) -> str:
        try:
            return self._names[(i, delta)]
        except KeyError:
            raise UnknownVariable(f"no template slot for generator {i}, gap {delta}")

    def canonical_name(self, name: str) -> str:
        """g{i}d{delta} spelling of a variable given in either spelling."""
        i, delta = self._slot(name)
        return f"g{i}d{delta}"

    def resolve(self, name: str) -> str:
        return self._names[self._slot(name)]

    def slot_values(self, point: CoefficientPoint) -> dict[tuple[int, int], Scalar]:
        """Each slot's value at the point, in slot order, as an int or a
        Fraction; a variable the point leaves out raises UnboundVariable."""
        values = point.as_dict()
        slots = {}
        for slot, name in self._names.items():
            if name not in values:
                raise UnboundVariable(f"no value for template variable {name!r}")
            q = values[name]
            slots[slot] = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return slots

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
        gens = [{"lead": v, "terms": []} for v in self.semigroup.generators]
        for (i, delta), name in self._names.items():
            gens[i]["terms"].append({"exp": delta, "var": name})
        return {"generators": gens, "variables": list(self.variables)}


def build_template(gamma: NumericalSemigroup) -> NormalFormTemplate:
    return NormalFormTemplate(gamma)


def instantiate(
    template: NormalFormTemplate, point: CoefficientPoint
) -> tuple[Series, ...]:
    """Numeric normal-form generators at a coefficient point."""
    coeffs = [{v: Poly.const(1)} for v in template.semigroup.generators]
    for (i, delta), q in template.slot_values(point).items():
        coeffs[i][delta] = Poly.const(q)
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
    slots = template.slot_values(point)
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
    if len({s.modulus for s in series_list}) > 1:
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
