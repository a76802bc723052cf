"""Deceptive polynomials and binomial pairs of equal weighted degree.

Give the generator ring C[x_0, ..., x_g] the weights deg x_i = v_i.  A
polynomial is deceptive when its lowest weighted-homogeneous part vanishes
at (1, ..., 1); the stock of examples driving everything here is the set of
oriented binomials x^u - x^w with u, w distinct exponent vectors of equal
weighted degree.  Substituting normal-form generators into a deceptive
binomial produces a series whose order jumps past the weighted degree, and
the surviving gap coefficients cut out the moduli variety.

Display names for the generator ring are x, y, z, w while there are at most
four generators, x0, x1, ... otherwise; all structural comparisons use the
exponent vectors, never the names.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Optional, Sequence

from .errors import UnknownVariable, WrongGeneratorCount, ZeroPolynomial
from .semigroup import NumericalSemigroup
from .symcore import Poly

_GEN_LETTERS = ("x", "y", "z", "w")


def generator_variable_names(count: int) -> tuple[str, ...]:
    if count <= len(_GEN_LETTERS):
        return _GEN_LETTERS[:count]
    return tuple(f"x{i}" for i in range(count))


def _power_str(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


@dataclass(frozen=True)
class GenMonomial:
    """A monomial in the generator ring, tracked with its weighted degree."""

    exponents: tuple[int, ...]
    weighted_degree: int

    @classmethod
    def from_exponents(
        cls, gamma: NumericalSemigroup, exponents: Sequence[int]
    ) -> "GenMonomial":
        exps = tuple(exponents)
        if len(exps) != len(gamma.generators):
            raise WrongGeneratorCount(
                f"expected {len(gamma.generators)} exponents, got {len(exps)}"
            )
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        degree = sum(e * v for e, v in zip(exps, gamma.generators))
        return cls(exps, degree)

    def as_poly(self, names: Sequence[str]) -> Poly:
        return Poly.monomial({n: e for n, e in zip(names, self.exponents) if e})

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        if names is None:
            names = generator_variable_names(len(self.exponents))
        pieces = [
            _power_str(names[i], e) for i, e in enumerate(self.exponents) if e
        ]
        return "*".join(pieces) if pieces else "1"


@dataclass(frozen=True)
class DeceptiveBinomial:
    """x^lhs - x^rhs with lhs, rhs distinct of equal weighted degree.

    Pairs produced by enumerate_sdec_below_conductor are additionally
    oriented: at the smallest index where the exponent vectors differ, the
    lhs has the smaller entry.  The three-generator ideal generators reuse
    this type with the opposite orientation, so orientation is checked at
    the enumeration boundary rather than here.
    """

    lhs: GenMonomial
    rhs: GenMonomial
    degree: int

    def __post_init__(self):
        if len(self.lhs.exponents) != len(self.rhs.exponents):
            raise ValueError("exponent vectors of unequal length")
        if self.lhs.exponents == self.rhs.exponents:
            raise ValueError("binomial sides must be distinct monomials")
        if not (self.lhs.weighted_degree == self.rhs.weighted_degree == self.degree):
            raise ValueError(
                "sides have different weighted degrees: "
                f"{self.lhs.weighted_degree} vs {self.rhs.weighted_degree}"
            )

    @classmethod
    def oriented(
        cls, gamma: NumericalSemigroup, u: Sequence[int], w: Sequence[int]
    ) -> "DeceptiveBinomial":
        """Build from two exponent vectors, orienting by the first
        differing index (smaller entry goes on the left)."""
        a = GenMonomial.from_exponents(gamma, u)
        b = GenMonomial.from_exponents(gamma, w)
        m = next(i for i in range(len(a.exponents)) if a.exponents[i] != b.exponents[i])
        if a.exponents[m] > b.exponents[m]:
            a, b = b, a
        return cls(a, b, a.weighted_degree)

    def satisfies_orientation(self) -> bool:
        for e1, e2 in zip(self.lhs.exponents, self.rhs.exponents):
            if e1 != e2:
                return e1 < e2
        return False

    def as_poly(self, names: Optional[Sequence[str]] = None) -> Poly:
        if names is None:
            names = generator_variable_names(len(self.lhs.exponents))
        return self.lhs.as_poly(names) - self.rhs.as_poly(names)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        return f"{self.lhs.render(names)} - {self.rhs.render(names)}"

    def to_json_dict(self) -> dict:
        return {
            "lhs": list(self.lhs.exponents),
            "rhs": list(self.rhs.exponents),
            "degree": self.degree,
        }


def is_deceptive(
    gamma: NumericalSemigroup, f: Poly, names: Optional[Sequence[str]] = None
) -> bool:
    """Whether the lowest weighted-homogeneous part of f vanishes at
    (1, ..., 1), i.e. its coefficients sum to zero."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no lowest part")
    if names is None:
        names = generator_variable_names(len(gamma.generators))
    weights = {n: v for n, v in zip(names, gamma.generators)}

    lowest: Optional[int] = None
    total = None
    for mono, coeff in f.terms():
        degree = 0
        for var, e in mono:
            if var not in weights:
                raise UnknownVariable(f"{var!r} is not a generator variable")
            degree += weights[var] * e
        if lowest is None or degree < lowest:
            lowest, total = degree, coeff
        elif degree == lowest:
            total += coeff
    return total == 0


def enumerate_sdec_below_conductor(
    gamma: NumericalSemigroup,
) -> tuple[DeceptiveBinomial, ...]:
    """All oriented binomial pairs of equal weighted degree below the
    conductor, sorted by (degree, lhs, rhs).

    The factorizations of each degree below c are counted first, capped at
    2; with no degree at 2 there is no pair and no exponent vector is built.
    The count runs on bits, one generator v_i at a time: m < c has two
    factorizations iff, for some i, m is a sum over v_0..v_{i-1} and m - v_i
    over v_0..v_i (cancel the common part from the last index that differs)."""
    c = gamma.conductor
    vs = gamma.generators
    reach = 1  # bit m: m is a sum over the generators so far
    for v in vs:
        before, shift = reach, v
        while shift < c:  # close under + v by doubling the shift
            reach |= reach << shift
            shift *= 2
        reach &= (1 << c) - 1
        if before & (reach << v):
            break
    else:
        return ()
    # exponent vectors of weighted degree below c, one generator at a time
    vectors: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for v in vs:
        vectors = [
            (prefix + (e,), degree + e * v)
            for prefix, degree in vectors
            for e in range((c - 1 - degree) // v + 1)
        ]
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for exponents, degree in vectors:
        if degree > 0:
            by_degree.setdefault(degree, []).append(exponents)

    out: list[DeceptiveBinomial] = []
    for degree in sorted(by_degree):
        bucket = sorted(by_degree[degree])
        for u, w in combinations(bucket, 2):
            out.append(DeceptiveBinomial.oriented(gamma, u, w))
    out.sort(key=lambda b: (b.degree, b.lhs.exponents, b.rhs.exponents))
    return tuple(out)


@dataclass(frozen=True)
class ThreeGenIdecGenerators:
    """Generators of the binomial ideal of relations for <v_0, v_1, v_2>:

        f1 = x^k0 - y^m0 z^m1,  f2 = y^k1 - x^n0 z^n1,  f3 = z^k2 - x^p0 y^p1

    with each k minimal and each cofactor revlex-minimal (smallest last
    coordinate, then middle).  Degrees may lie at or past the conductor.
    """

    binomials: tuple[DeceptiveBinomial, DeceptiveBinomial, DeceptiveBinomial]
    ks: tuple[int, int, int]


def idec_generators_3gen(gamma: NumericalSemigroup) -> ThreeGenIdecGenerators:
    """k_a is the least k >= 1 with an entry for k * v_a in the cached
    factorization table over the other generators v_b < v_c; that entry is
    the cofactor.  k = v_b always has one, so the table runs to v_a * v_b."""
    vs = gamma.generators
    if len(vs) != 3:
        raise WrongGeneratorCount(
            f"the binomial presentation needs exactly 3 generators, got {len(vs)}"
        )

    binomials = []
    ks = []
    for axis, va in enumerate(vs):
        others = tuple(i for i in range(3) if i != axis)
        table = gamma.factorization_table(others, va * vs[others[0]] + 1)
        k = next(k for k in count(1) if table[k * va] is not None)
        lhs = tuple(k if i == axis else 0 for i in range(3))
        binomials.append(
            DeceptiveBinomial(
                GenMonomial.from_exponents(gamma, lhs),
                GenMonomial.from_exponents(gamma, table[k * va]),
                k * va,
            )
        )
        ks.append(k)

    return ThreeGenIdecGenerators(tuple(binomials), tuple(ks))
