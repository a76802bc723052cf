"""Brute-force verification through exact linear algebra.

Independent of the reduction machinery, a numeric subalgebra can be handled
directly: mod t^c, the algebra generated by series of positive order is the
linear span of all products of generators whose orders sum below c (orders
add over a field, so every other product vanishes).  Row-reducing that span
over Q answers everything:

* the pivot columns are exactly the orders realized by nonzero elements of
  the algebra, i.e. the positive part of its order semigroup below c;
* picking the reduced rows at the minimal generators of that semigroup
  yields the canonical normal-form generators of the same algebra.

This is the oracle the symbolic pipeline is tested against: a template
point lies in the variety precisely when the closure semigroup of its
instantiated generators adds no new elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ModulusMismatch, OrderZeroGenerator
from .normalform import CoefficientPoint, build_template, instantiate
from .semigroup import NumericalSemigroup
from .symcore import Poly, Series


@dataclass(frozen=True)
class RowEchelonBasis:
    """Reduced row echelon basis of a span of numeric series: row orders
    are the strictly increasing pivots, each monic with its pivot column
    cleared from every other row."""

    modulus: int
    rows: tuple[Series, ...]
    pivot_orders: tuple[int, ...]


def _to_vector(s: Series) -> list[int]:
    # the coefficients times the lcm of their denominators: an integer row
    # spanning the same line
    values = {}
    for exp, poly in s.items():
        value = poly.constant_value()
        if value is None:
            raise ValueError("the oracle needs numeric series (constant coefficients)")
        values[exp] = value
    scale = math.lcm(*(q.denominator for q in values.values()))
    vec = [0] * s.modulus
    for exp, q in values.items():
        vec[exp] = q.numerator * (scale // q.denominator)
    return vec


def echelon_basis(series_list: Sequence[Series]) -> RowEchelonBasis:
    """Reduced row echelon form of the span of the given numeric series.

    Elimination runs on integer rows: each step replaces a row by
    a*row - b*pivot divided by its content, and the monic rational rows
    are formed only at the end (the reduced form is unique).
    """
    if not series_list:
        raise OrderZeroGenerator("nothing to span")
    modulus = series_list[0].modulus
    for s in series_list[1:]:
        if s.modulus != modulus:
            raise ModulusMismatch("series must share one modulus")

    rows = [_to_vector(s) for s in series_list]
    pivots: list[int] = []
    rank = 0
    for col in range(modulus):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        lead = pivot[col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                g = math.gcd(lead, rows[i][col])
                a, b = lead // g, rows[i][col] // g
                row = [a * x - b * y for x, y in zip(rows[i], pivot)]
                content = math.gcd(*row)
                if content > 1:
                    row = [x // content for x in row]
                rows[i] = row
        pivots.append(col)
        rank += 1

    basis = tuple(
        Series(
            modulus,
            {e: Poly.const(Fraction(x, row[col])) for e, x in enumerate(row) if x},
        )
        for row, col in zip(rows, pivots)
    )
    return RowEchelonBasis(modulus, basis, tuple(pivots))


def _closure_basis(generators: Sequence[Series]) -> RowEchelonBasis:
    if not generators:
        raise OrderZeroGenerator("subalgebra generators required, got an empty list")
    modulus = generators[0].modulus
    for s in generators[1:]:
        if s.modulus != modulus:
            raise ModulusMismatch("generator series must share one modulus")

    ordered = []
    for s in generators:
        order = s.order()
        if order == 0:
            raise OrderZeroGenerator(
                "generators must have positive order (units generate everything)"
            )
        if order is not None:
            ordered.append((order, s))
    ordered.sort(key=lambda pair: pair[0])

    # every product of generators (as a multiset) with order sum below the
    # modulus, by an explicit stack of (first allowed factor, product, order)
    spanning: list[Series] = [Series.one(modulus)]
    stack = [(0, spanning[0], 0)]
    while stack:
        start, product, order = stack.pop()
        for j in range(start, len(ordered)):
            step = order + ordered[j][0]
            if step >= modulus:
                break
            bigger = product * ordered[j][1]
            spanning.append(bigger)
            stack.append((j, bigger, step))
    return echelon_basis(spanning)


def subalgebra_closure_semigroup(generators: Sequence[Series]) -> frozenset[int]:
    """Positive orders below the modulus realized by the algebra generated
    by the given numeric series."""
    basis = _closure_basis(generators)
    return frozenset(p for p in basis.pivot_orders if p > 0)


def canonical_normal_form(
    generators: Sequence[Series],
) -> tuple[NumericalSemigroup, tuple[Series, ...]]:
    """Detect the order semigroup of the generated algebra and return its
    canonical normal-form generators (echelon rows at the minimal
    generators; zero series for minimal generators at or past the modulus).
    """
    basis = _closure_basis(generators)
    modulus = basis.modulus
    positive = {p for p in basis.pivot_orders if p > 0}

    def member(n: int) -> bool:
        return n in positive or n >= modulus

    least = min(positive) if positive else modulus
    minimal: list[int] = []
    for n in range(1, modulus + least):
        if member(n) and not any(
            member(a) and member(n - a) for a in range(least, n - least + 1)
        ):
            minimal.append(n)

    detected = NumericalSemigroup.from_generators(minimal)
    by_pivot = {row.order(): row for row in basis.rows}
    normal = tuple(
        by_pivot[v] if v < modulus else Series.zero(modulus)
        for v in detected.generators
    )
    return detected, normal


def verify_point(gamma: NumericalSemigroup, point: CoefficientPoint) -> bool:
    """Does instantiating the template at this point really produce an
    algebra with semigroup Gamma (no unexpected orders below c)?"""
    template = build_template(gamma)
    generators = instantiate(template, point)
    nonzero = [s for s in generators if not s.is_zero]
    if not nonzero:
        return not gamma.elements_below_conductor
    closure = subalgebra_closure_semigroup(nonzero)
    return closure == frozenset(gamma.elements_below_conductor)
