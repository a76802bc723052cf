"""Reduction of truncated series against normal-form generators.

Given normal-form generators x_0(t), ..., x_g(t) of a subalgebra with
semigroup Gamma (conductor c), any series r mod t^c can be stripped of its
semigroup-supported part: walk Gamma's factorization table for n in (0, c)
in increasing order and, whenever t^n carries a nonzero coefficient q and
the table holds n's reverse-lexicographically minimal factorization e,
subtract q times the monomial series x^{e}.  Each subtraction clears t^n
exactly (the monomial series is monic of order n) and only disturbs higher
powers, so the result -- the reduction of r -- is supported on the gaps of
Gamma.

On Series, the substitution phi: x_i -> x_i(t) has one implementation,
Substitution; ReductionContext extends it with the semigroup and the
reduction.

The trace records every removal step and the witness polynomial
F = sum q * x^e, giving the exact reconstruction r = red(r) + phi(F).
ReductionContext keeps Poly coefficients throughout, so one code path
serves the symbolic template generators and the numeric series that
``rgamma reduce`` takes.

Reducing with generator indices walks the table of that subset instead, so
only its sums are removed, which is what the plane stratum test needs.

Reduction commutes with specialising the coefficients, so at an explicit
point IntegerReduction runs the same walk on integer coefficient lists
(the generators of normalform.integer_generators) and reads the gap
coefficients directly, without the symbolic equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import ArityMismatch, EmptyInput, ModulusMismatch, NotNormalForm
from .deceptive import generator_variable_names
from .normalform import is_normal_form, template_modulus
from .semigroup import NumericalSemigroup
from .symcore import MutableSeries, Poly, Series, poly_sum, truncated_product


@dataclass(frozen=True)
class ReductionStep:
    """One removal: coefficient ``multiplier`` of t^power was cleared by
    subtracting multiplier * x^factorization."""

    power: int
    multiplier: Poly
    factorization: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "power": self.power,
            "multiplier": str(self.multiplier),
            "factorization": list(self.factorization),
        }


@dataclass(frozen=True)
class ReductionTrace:
    """The reduced series and the removal steps; ``names`` are the ring
    variables the witness is written in."""

    reduced: Series
    steps: tuple[ReductionStep, ...]
    names: tuple[str, ...]

    @cached_property
    def witness(self) -> Poly:
        """F = sum q * x^e, formed on first use: the defining equations
        never read it (for <11,13,17> it has 13,735 terms)."""
        return poly_sum(
            s.multiplier * Poly.monomial(
                {self.names[i]: e for i, e in enumerate(s.factorization) if e}
            )
            for s in self.steps
        )

    def to_json_dict(self) -> dict:
        return {
            "reduced": str(self.reduced),
            "steps": [s.to_json_dict() for s in self.steps],
        }


class Substitution:
    """The ring map phi sending the i-th ring variable to generators[i].

    ``names`` lists the ring variables, one per generator (default x, y, z,
    w or x0, x1, ...).  Variables of f outside ``names`` ride along as
    scalar coefficients, which is what evaluating a reduction witness needs.
    Generator powers and monomial series x^e are cached for reuse.
    """

    def __init__(
        self,
        generators: Sequence[Series],
        names: Optional[Sequence[str]] = None,
    ):
        if not generators:
            raise EmptyInput("phi needs at least one generator series")
        if names is None:
            names = generator_variable_names(len(generators))
        if len(names) != len(generators):
            raise ArityMismatch(
                f"{len(generators)} generators but {len(names)} ring variables"
            )
        modulus = generators[0].modulus
        for s in generators[1:]:
            if s.modulus != modulus:
                raise ModulusMismatch("generator series must share one modulus")
        self.generators = tuple(generators)
        self.names = tuple(names)
        self.modulus = modulus
        self._index = {name: i for i, name in enumerate(self.names)}
        self._powers: dict[tuple[int, int], Series] = {}
        self._monomials: dict[tuple[int, ...], Series] = {}

    def _power(self, i: int, e: int) -> Series:
        key = (i, e)
        if key not in self._powers:
            self._powers[key] = self.generators[i] ** e
        return self._powers[key]

    def monomial_series(self, vec: Sequence[int]) -> Series:
        key = tuple(vec)
        if key not in self._monomials:
            result = Series.one(self.modulus)
            for i, e in enumerate(key):
                if e:
                    result = result * self._power(i, e)
            self._monomials[key] = result
        return self._monomials[key]

    def phi(self, f: Poly) -> Series:
        total = Series.zero(self.modulus)
        for mono, coeff in f.terms():
            vec = [0] * len(self.generators)
            residual: dict[str, int] = {}
            for var, e in mono:
                if var in self._index:
                    vec[self._index[var]] = e
                else:
                    residual[var] = e
            scalar = Poly.monomial(residual, coeff) if residual else Poly.const(coeff)
            total = total + self.monomial_series(vec).scale(scalar)
        return total


def phi_eval(
    generators: Sequence[Series],
    f: Poly,
    names: Optional[Sequence[str]] = None,
) -> Series:
    """phi(f) for the generator series; see :class:`Substitution`."""
    return Substitution(generators, names).phi(f)


class ReductionContext(Substitution):
    """phi and reduction against one normal-form generator tuple; the
    variety presentation reduces every deceptive binomial through one."""

    def __init__(
        self,
        gamma: NumericalSemigroup,
        generators: Sequence[Series],
        names: Optional[Sequence[str]] = None,
    ):
        if len(generators) != len(gamma.generators):
            raise ArityMismatch(
                f"{gamma} has {len(gamma.generators)} generators, "
                f"got {len(generators)} series"
            )
        modulus = template_modulus(gamma)
        for s in generators:
            if s.modulus != modulus:
                raise ModulusMismatch(
                    f"series modulus {s.modulus} differs from t^{modulus}"
                )
        if not is_normal_form(generators, gamma):
            raise NotNormalForm(
                "generators do not have normal-form shape for " + str(gamma)
            )
        # an empty names sequence selects the default names
        super().__init__(generators, names or None)
        self.gamma = gamma

    def reduce(
        self, r: Series, indices: Optional[Sequence[int]] = None
    ) -> ReductionTrace:
        if r.modulus != self.modulus:
            raise ModulusMismatch(
                f"input lives mod t^{r.modulus}, generators mod t^{self.modulus}"
            )
        current = MutableSeries(r)
        steps: list[ReductionStep] = []
        for n, vec in enumerate(self.gamma.factorization_table(indices)):
            if not n or vec is None:
                continue
            q = current.pop(n)
            if q.is_zero:
                continue
            # x^vec is monic of order n: subtracting q * x^vec clears t^n,
            # whose coefficient was popped, and changes only higher powers
            current.add_product(self.monomial_series(vec), -q, n + 1)
            steps.append(ReductionStep(n, q, vec))
        return ReductionTrace(current.freeze(), tuple(steps), self.names)


class IntegerReduction:
    """Reduction against monic integer normal-form rows, such as
    normalform.integer_generators gives; series are integer coefficient
    lists of the same length, and monomials in the rows are cached."""

    def __init__(self, gamma: NumericalSemigroup, rows: Sequence[list[int]]):
        self.gamma = gamma
        self.rows = tuple(rows)
        self.modulus = len(self.rows[0])
        one = [0] * self.modulus
        one[0] = 1
        self._monomials: dict[tuple[int, ...], list[int]] = {(0,) * len(self.rows): one}

    def monomial(self, vec: tuple[int, ...]) -> list[int]:
        """x^vec, built from the cached x^(vec - e_i) for its first i in use."""
        m = self._monomials.get(vec)
        if m is None:
            i = next(i for i, e in enumerate(vec) if e)
            smaller = vec[:i] + (vec[i] - 1,) + vec[i + 1:]
            m = truncated_product(self.monomial(smaller), self.rows[i])
            self._monomials[vec] = m
        return m

    def binomial(self, lhs: tuple[int, ...], rhs: tuple[int, ...]) -> list[int]:
        """phi(x^lhs - x^rhs) as a new list."""
        return [a - b for a, b in zip(self.monomial(lhs), self.monomial(rhs))]

    def reduce(self, r: list[int], indices: Optional[Sequence[int]] = None) -> list[int]:
        """Reduce r in place (over the indexed generators) and return it."""
        for n, vec in enumerate(self.gamma.factorization_table(indices)):
            q = r[n]
            if q and n and vec is not None:
                m = self.monomial(vec)
                r[n:] = [x - q * y for x, y in zip(r[n:], m[n:])]
        return r


def reduce(
    gamma: NumericalSemigroup,
    generators: Sequence[Series],
    r: Series,
) -> ReductionTrace:
    """Strip every semigroup-supported term of r; see the module docstring."""
    return ReductionContext(gamma, generators).reduce(r)


def reduce_subset(
    gamma: NumericalSemigroup,
    indices: Sequence[int],
    generators: Sequence[Series],
    r: Series,
) -> ReductionTrace:
    """Reduction that only removes powers representable over the selected
    generator indices."""
    if not indices:
        raise EmptyInput("the generator index subset must be non-empty")
    return ReductionContext(gamma, generators).reduce(r, indices)
