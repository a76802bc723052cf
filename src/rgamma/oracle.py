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
normal-form generators adds no new elements.

Everything runs on integer rows: each generator is scaled once by the lcm
of its denominators, products are truncated integer convolutions
(symcore.truncated_product, the one helper shared with the point path) and
elimination divides each new row by its content.  What stays independent
of the path under test: the oracle never touches the reduction, the
defining equations or normalform.integer_generators; at a point it reads
the template's slot values straight into its own integer rows, and knows
only products and linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ModulusMismatch, OrderZeroGenerator
from .normalform import CoefficientPoint, build_template
from .semigroup import NumericalSemigroup
from .symcore import Poly, Scalar, Series, truncated_product


@dataclass(frozen=True)
class RowEchelonBasis:
    """Reduced row echelon basis of a span of numeric series: row orders
    are the strictly increasing pivots, each monic with its pivot column
    cleared from every other row."""

    modulus: int
    rows: tuple[Series, ...]
    pivot_orders: tuple[int, ...]


def _scaled_row(values: Mapping[int, Scalar], modulus: int) -> list[int]:
    # the coefficients {power: value} times the lcm of their denominators:
    # an integer row spanning the same line
    scale = math.lcm(*(q.denominator for q in values.values()))
    vec = [0] * modulus
    for exp, q in values.items():
        vec[exp] = q.numerator * (scale // q.denominator)
    return vec


def _to_vector(s: Series) -> list[int]:
    values = {exp: poly.constant_value() for exp, poly in s.items()}
    if None in values.values():
        raise ValueError("the oracle needs numeric series (constant coefficients)")
    return _scaled_row(values, s.modulus)


def _echelon(rows: list[list[int]], reduced: bool = True) -> list[int]:
    # Gauss-Jordan on integer rows in place: each step replaces a row by
    # a*row - b*pivot divided by its content.  The pivot rows end up first,
    # each with its pivot column cleared from every later row, and from
    # every earlier one too when ``reduced``; returns the pivot columns.
    pivots: list[int] = []
    rank = 0
    for col in range(len(rows[0])):
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
        for i in range(0 if reduced else rank + 1, len(rows)):
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
    return pivots


def _monic_basis(rows: list[list[int]], pivots: list[int]) -> RowEchelonBasis:
    # the reduced form is unique: the pivot rows made monic
    modulus = len(rows[0])
    basis = tuple(
        Series(
            modulus,
            {e: Poly.const(Fraction(x, row[col])) for e, x in enumerate(row) if x},
        )
        for row, col in zip(rows, pivots)
    )
    return RowEchelonBasis(modulus, basis, tuple(pivots))


def echelon_basis(series_list: Sequence[Series]) -> RowEchelonBasis:
    """Reduced row echelon form of the span of the given numeric series.

    Elimination runs on integer rows; the monic rational rows are formed
    only at the end.
    """
    if not series_list:
        raise OrderZeroGenerator("nothing to span")
    modulus = series_list[0].modulus
    if any(s.modulus != modulus for s in series_list):
        raise ModulusMismatch("series must share one modulus")
    rows = [_to_vector(s) for s in series_list]
    return _monic_basis(rows, _echelon(rows))


def _spanning_rows(generators: Sequence[Series]) -> list[list[int]]:
    # integer rows of every product of generators (as a multiset) with
    # order sum below the modulus
    if not generators:
        raise OrderZeroGenerator("subalgebra generators required, got an empty list")
    modulus = generators[0].modulus
    if any(s.modulus != modulus for s in generators):
        raise ModulusMismatch("generator series must share one modulus")

    ordered = []
    for s in generators:
        order = s.order()
        if order == 0:
            raise OrderZeroGenerator(
                "generators must have positive order (units generate everything)"
            )
        if order is not None:
            ordered.append((order, _to_vector(s)))
    return _products(ordered, modulus)


def _products(ordered: Sequence[tuple[int, list[int]]], modulus: int) -> list[list[int]]:
    # 1 and every product of the (order, row) factors with order sum below
    # the modulus, through an explicit stack of (first allowed factor,
    # product, order)
    ordered = sorted(ordered, key=lambda pair: pair[0])
    one = [1] + [0] * (modulus - 1)
    spanning = [one]
    stack = [(0, one, 0)]
    while stack:
        start, product, order = stack.pop()
        for j in range(start, len(ordered)):
            step = order + ordered[j][0]
            if step >= modulus:
                break
            bigger = truncated_product(product, ordered[j][1])
            spanning.append(bigger)
            stack.append((j, bigger, step))
    return spanning


def _closure_basis(generators: Sequence[Series]) -> RowEchelonBasis:
    rows = _spanning_rows(generators)
    return _monic_basis(rows, _echelon(rows))


def subalgebra_closure_semigroup(generators: Sequence[Series]) -> frozenset[int]:
    """Positive orders below the modulus realized by the algebra generated
    by the given numeric series."""
    pivots = _echelon(_spanning_rows(generators), reduced=False)
    return frozenset(p for p in pivots if p > 0)


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

    least = min(positive) if positive else modulus
    detected = NumericalSemigroup.from_generators(
        sorted(positive) + list(range(modulus, modulus + least))
    )
    by_pivot = {row.order(): row for row in basis.rows}
    normal = tuple(
        by_pivot[v] if v < modulus else Series.zero(modulus)
        for v in detected.generators
    )
    return detected, normal


def verify_point(gamma: NumericalSemigroup, point: CoefficientPoint) -> bool:
    """Does the algebra of the normal-form generators at this point really
    have semigroup Gamma (no unexpected orders below c)?"""
    template = build_template(gamma)
    modulus = template.modulus
    coeffs = {i: {v: 1} for i, v in enumerate(gamma.generators) if v < modulus}
    for (i, delta), q in template.slot_values(point).items():
        coeffs[i][delta] = q
    ordered = [(gamma.generators[i], _scaled_row(c, modulus)) for i, c in coeffs.items()]
    pivots = _echelon(_products(ordered, modulus), reduced=False)
    closure = frozenset(p for p in pivots if p > 0)
    return closure == frozenset(gamma.elements_below_conductor)
