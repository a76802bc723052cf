"""Exact sparse polynomials and truncated power series over Q.

Two immutable value types carry all symbolic computation in this package:

* :class:`Poly`, a sparse multivariate polynomial with exact rational
  coefficients, stored as a map from monomials to coefficients.  A monomial
  is a tuple of ``(variable, exponent)`` pairs sorted by variable name with
  every exponent positive; the empty tuple is the constant monomial.
  Coefficients are plain ``int`` whenever integral and ``Fraction``
  otherwise; the two mix freely (equal values hash and print identically),
  and integer-only arithmetic stays on the fast native path.

* :class:`Series`, an element of Q[vars][t] / (t^modulus): a polynomial in
  ``t`` truncated at a fixed power, whose coefficients are ``Poly`` values.
  Numeric series are the special case where every coefficient is a
  constant polynomial: ``instantiate`` builds them for ``rgamma reduce``,
  and the oracle's Series functions (``echelon_basis``,
  ``subalgebra_closure_semigroup``, ``canonical_normal_form``) take them.

The work at an explicit point (membership, the plane test and
``verify_point``) builds neither a Series nor a Poly: it reads the
template's slot values into integer coefficient lists of length
``modulus``, indexed by the power of ``t``, and ``truncated_product`` is
its one product.

Every sum of term dicts goes through ``_accumulate`` and every product
through ``_mul_into``; these two are the only loops that merge terms, and
``_mul_into`` is the only caller of ``_mono_mul``.  :class:`MutableSeries`
is the one mutable value: the reduction merges its products into it in
place instead of forming a new Series per step.

Rendering is canonical: polynomial terms are ordered by total degree
descending, then by the word of variables (natural name order, so ``a9``
precedes ``a10``); series terms are ordered by ascending power of ``t``.
Two equal values always render to the same string.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ModulusMismatch, UnboundVariable

Monomial = tuple[tuple[str, int], ...]
Scalar = Union[Fraction, int]
Terms = Mapping[Monomial, Scalar]

_NAME_CHUNKS = re.compile(r"(\d+)")


@functools.cache
def name_key(name: str) -> tuple:
    """Natural sort key for variable names: digit runs compare numerically."""
    parts = _NAME_CHUNKS.split(name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def _norm_scalar(q: Scalar) -> Scalar:
    """Exact scalar: int when integral, Fraction otherwise."""
    if isinstance(q, int):
        return q
    f = q if isinstance(q, Fraction) else Fraction(q)
    return f.numerator if f.denominator == 1 else f


def _mono(exponents: Mapping[str, int]) -> Monomial:
    # the monomial key: name-sorted pairs, zero exponents dropped
    return tuple(sorted((v, e) for v, e in exponents.items() if e))


@functools.cache
def _pair(var: str, e: int) -> tuple[str, int]:
    # one shared object per (variable, exponent): a large product holds
    # thousands of monomials but few distinct pairs (the 11,096-term
    # equations of <11,13,17> held 8,851 separate pair tuples without it)
    return (var, e)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # merge of two name-sorted exponent tuples
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[str, int]] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append(_pair(va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _natural(m: Monomial) -> list[tuple[str, int]]:
    # factors in natural name order, so a9 precedes a10
    return sorted(m, key=lambda ve: name_key(ve[0]))


def _term_key(m: Monomial, factors: list[tuple[str, int]]) -> list:
    # Total degree descending, then the natural-order factors as a flat run
    # of (name key, -exponent) pairs: ordering by those is ordering by the
    # expanded variable words, without expanding them.  The key is flat, not
    # a tuple of pairs, because every key of a Poly is held while it renders.
    key: list = [-_mono_degree(m)]
    for var, e in factors:
        key += (name_key(var), -e)
    return key


def _factors_str(factors: list[tuple[str, int]]) -> str:
    return "*".join(var if e == 1 else f"{var}^{e}" for var, e in factors)


def _mono_str(m: Monomial) -> str:
    return _factors_str(_natural(m))


def _accumulate(terms: dict[Monomial, Scalar], other: Terms) -> None:
    # add other into terms in place, dropping the terms that cancel
    for mono, coeff in other.items():
        s = terms.get(mono, 0) + coeff
        if s:
            # int when integral; testing the class first keeps ints cheap
            terms[mono] = s if s.__class__ is int or s.denominator != 1 else s.numerator
        else:
            terms.pop(mono, None)


def _mul_into(terms: dict[Monomial, Scalar], a: Terms, b: Terms) -> None:
    # add the product a*b into terms in place, dropping the terms that cancel
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            s = terms.get(mono, 0) + c1 * c2
            if s:
                terms[mono] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                terms.pop(mono, None)


def _power(base, exponent: int, one):
    # square and multiply, without squaring past the top bit
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def truncated_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a*b mod t^n for two coefficient lists of one length n, indexed by
    the power of t."""
    n = len(a)
    out = [0] * n
    later = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in later:
                k = i + j
                if k >= n:
                    break
                out[k] += x * y
    return out


class Poly:
    """Immutable sparse polynomial over Q."""

    # _text caches the rendering, which a value type can keep for life
    __slots__ = ("_terms", "_text")

    def __init__(self, terms: Terms | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                q = _norm_scalar(coeff)
                if q:
                    clean[mono] = q
        self._terms = clean
        self._text = None

    @classmethod
    def _make(cls, terms: dict[Monomial, Scalar]) -> "Poly":
        # trusted: no zero values, scalars already normalized
        p = object.__new__(cls)
        p._terms = terms
        p._text = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({(): value})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls._make({((name, 1),): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: Scalar = 1) -> "Poly":
        mono = _mono(exponents)
        if any(e < 0 for _, e in mono):
            raise ValueError("negative exponent in monomial")
        return cls({mono: coeff})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        return iter(self._terms.items())

    def coefficient(self, exponents: Mapping[str, int]) -> Scalar:
        return self._terms.get(_mono(exponents), 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Optional[Scalar]:
        """The value of a constant polynomial, None if any variable occurs."""
        if not self._terms:
            return 0
        if self.is_constant:
            return self._terms[()]
        return None

    def variables(self) -> set[str]:
        return {var for mono in self._terms for var, _ in mono}

    def total_degree(self) -> int:
        """Degree of the zero polynomial is taken as -1."""
        if not self._terms:
            return -1
        return max(_mono_degree(m) for m in self._terms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        terms = dict(self._terms)
        _accumulate(terms, other._terms)
        return Poly._make(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._make({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        terms: dict[Monomial, Scalar] = {}
        _mul_into(terms, self._terms, other._terms)
        return Poly._make(terms)

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Scalar) -> "Poly":
        q = _norm_scalar(factor)
        if not q:
            return Poly._make({})
        terms = {}
        for m, c in self._terms.items():
            s = c * q
            terms[m] = s if s.__class__ is int or s.denominator != 1 else s.numerator
        return Poly._make(terms)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, exponent, Poly.const(1))

    # -- substitution and evaluation ----------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at a total assignment of the polynomial's variables.

        Fraction-free: with the used values over one common denominator D
        and the coefficients over one common denominator B, every term of
        total degree k is an integer over B * D^k.  The integer sums per
        degree are brought over B * D^top and divided once.
        """
        values: dict[str, Scalar] = {}
        for mono in self._terms:
            for var, _ in mono:
                if var not in values:
                    if var not in point:
                        raise UnboundVariable(f"no value for variable {var!r}")
                    v = point[var]
                    values[var] = v if isinstance(v, (int, Fraction)) else Fraction(v)
        d = math.lcm(*(v.denominator for v in values.values()))
        b = math.lcm(*(c.denominator for c in self._terms.values()))
        nums = {var: v.numerator * (d // v.denominator) for var, v in values.items()}
        powers: dict[tuple[str, int], int] = {}
        sums: dict[int, int] = {}
        for mono, coeff in self._terms.items():
            term = coeff.numerator * (b // coeff.denominator)
            degree = 0
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    power = powers[factor] = nums[factor[0]] ** factor[1]
                term *= power
                degree += factor[1]
            sums[degree] = sums.get(degree, 0) + term
        top = max(sums, default=0)
        total = sum(s * d ** (top - k) for k, s in sums.items())
        return _norm_scalar(Fraction(total, b * d ** top))

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``name`` by a polynomial."""
        terms: dict[Monomial, Scalar] = {}
        powers: dict[int, Poly] = {}
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.pop(name, 0)
            if e not in powers:
                powers[e] = replacement ** e
            _mul_into(terms, {_mono(exps): coeff}, powers[e]._terms)
        return Poly._make(terms)

    def extract_linear(self, name: str) -> Optional[tuple[Scalar, "Poly"]]:
        """Split as alpha*name + rest when ``name`` occurs exactly linearly.

        Returns ``(alpha, rest)`` with alpha a nonzero constant and ``name``
        absent from ``rest``, or None if the variable is missing, appears with
        higher degree, or appears in a product with other variables.
        """
        target: Monomial = ((name, 1),)
        alpha = self._terms.get(target)
        if alpha is None:
            return None
        rest: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            if mono == target:
                continue
            if any(var == name for var, _ in mono):
                return None
            rest[mono] = coeff
        return alpha, Poly._make(rest)

    # -- identity and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _ordered(self) -> list[tuple[list, Monomial, list, Scalar]]:
        # (sort key, monomial, natural-order factors, coefficient) in
        # canonical order: each monomial is put in natural order once
        keyed = []
        for mono, coeff in self._terms.items():
            factors = _natural(mono)
            keyed.append((_term_key(mono, factors), mono, factors, coeff))
        keyed.sort(key=lambda entry: entry[0])
        return keyed

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in canonical rendering order (degree desc, then word)."""
        return [(mono, coeff) for _, mono, _, coeff in self._ordered()]

    def __str__(self) -> str:
        if self._text is not None:
            return self._text
        pieces: list[str] = []
        for _, mono, factors, coeff in self._ordered():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = _factors_str(factors)
            else:
                body = f"{mag}*{_factors_str(factors)}"
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        self._text = "".join(pieces) or "0"
        return self._text

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_sum(polys: Iterable[Poly]) -> Poly:
    terms: dict[Monomial, Scalar] = {}
    for p in polys:
        _accumulate(terms, p._terms)
    return Poly._make(terms)


class Series:
    """Element of Q[coefficients][t] / (t^modulus), immutable."""

    __slots__ = ("modulus", "_coeffs")

    def __init__(self, modulus: int, coeffs: Mapping[int, Poly] | None = None):
        if modulus < 1:
            raise ValueError("series modulus must be positive")
        clean: dict[int, Poly] = {}
        if coeffs:
            for exp, poly in coeffs.items():
                if exp < 0:
                    raise ValueError("negative exponent in series")
                if exp < modulus and not poly.is_zero:
                    clean[exp] = poly
        self.modulus = modulus
        self._coeffs = clean

    @classmethod
    def _make(cls, modulus: int, coeffs: dict[int, Poly]) -> "Series":
        # trusted: exponents in range, no zero polynomials
        s = object.__new__(cls)
        s.modulus = modulus
        s._coeffs = coeffs
        return s

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, modulus: int) -> "Series":
        return cls(modulus)

    @classmethod
    def one(cls, modulus: int) -> "Series":
        return cls(modulus, {0: Poly.const(1)})

    @classmethod
    def term(cls, modulus: int, exp: int, coeff: Union[Poly, Scalar] = 1) -> "Series":
        poly = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        return cls(modulus, {exp: poly})

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[int, Poly]]:
        return sorted(self._coeffs.items())

    def coefficient(self, exp: int) -> Poly:
        return self._coeffs.get(exp, Poly.zero())

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def order(self) -> Optional[int]:
        """Lowest exponent with nonzero coefficient; None for the zero series."""
        if not self._coeffs:
            return None
        return min(self._coeffs)

    # -- arithmetic ---------------------------------------------------

    def _require_same_modulus(self, other: "Series") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"series moduli differ: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_modulus(other)
        coeffs = dict(self._coeffs)
        for exp, poly in other._coeffs.items():
            cur = coeffs.get(exp)
            s = poly if cur is None else cur + poly
            if s.is_zero:
                coeffs.pop(exp, None)
            else:
                coeffs[exp] = s
        return Series._make(self.modulus, coeffs)

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Series":
        return Series._make(self.modulus, {e: -p for e, p in self._coeffs.items()})

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_modulus(other)
        modulus = self.modulus
        coeffs: dict[int, dict[Monomial, Scalar]] = {}
        for e1, p1 in self._coeffs.items():
            for e2, p2 in other._coeffs.items():
                exp = e1 + e2
                if exp < modulus:
                    _mul_into(coeffs.setdefault(exp, {}), p1._terms, p2._terms)
        return Series._make(modulus, {e: Poly._make(t) for e, t in coeffs.items() if t})

    def scale(self, factor: Union[Poly, Scalar]) -> "Series":
        poly = factor if isinstance(factor, Poly) else Poly.const(factor)
        if poly.is_zero:
            return Series(self.modulus)
        # Q[vars] has no zero divisors, so no term can vanish here
        return Series._make(
            self.modulus, {e: p * poly for e, p in self._coeffs.items()}
        )

    def __pow__(self, exponent: int) -> "Series":
        if exponent < 0:
            raise ValueError("negative power of a truncated series")
        return _power(self, exponent, Series.one(self.modulus))

    # -- identity and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.modulus == other.modulus and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.modulus, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for exp, poly in self.items():
            tpart = "" if exp == 0 else ("t" if exp == 1 else f"t^{exp}")
            sign = "+"
            const = poly.constant_value()
            if const is not None:
                if const < 0:
                    sign, const = "-", -const
                if not tpart:
                    body = str(const)
                elif const == 1:
                    body = tpart
                else:
                    body = f"{const}*{tpart}"
            elif len(poly._terms) == 1:
                ((mono, coeff),) = poly._terms.items()
                if coeff < 0:
                    sign, coeff = "-", -coeff
                body = _mono_str(mono) if coeff == 1 else f"{coeff}*{_mono_str(mono)}"
                if tpart:
                    body = f"{body}*{tpart}"
            else:
                body = f"({poly})" if not tpart else f"({poly})*{tpart}"
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Series(mod t^{self.modulus}: {self})"


class MutableSeries:
    """A Series being reduced in place: each power of t keeps one term dict
    that products are merged into, so no intermediate Series or Poly is
    formed per step."""

    __slots__ = ("modulus", "_terms")

    def __init__(self, s: Series):
        self.modulus = s.modulus
        self._terms = {e: dict(p._terms) for e, p in s._coeffs.items()}

    def pop(self, exp: int) -> Poly:
        """Remove the coefficient of t^exp and return it."""
        return Poly._make(self._terms.pop(exp, {}))

    def add_product(self, s: Series, factor: Poly, start: int) -> None:
        """Add factor * s to the powers of t from ``start`` on."""
        for exp, poly in s._coeffs.items():
            if exp >= start:
                _mul_into(self._terms.setdefault(exp, {}), poly._terms, factor._terms)

    def freeze(self) -> Series:
        return Series._make(
            self.modulus, {e: Poly._make(t) for e, t in self._terms.items() if t}
        )
