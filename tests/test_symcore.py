"""Exact polynomial and truncated-series arithmetic."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import parse_poly, random_fraction
from rgamma.errors import ModulusMismatch, UnboundVariable
from rgamma.symcore import (
    MutableSeries,
    Poly,
    Series,
    name_key,
    poly_sum,
    truncated_product,
)


def rand_poly(rng, names=("a5", "b7", "c15"), max_terms=4, max_exp=3):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        exponents = {n: rng.randint(1, max_exp) for n in chosen}
        p = p + Poly.monomial(exponents, random_fraction(rng))
    return p


def rand_series(rng, modulus=12, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randrange(modulus)] = Poly.const(random_fraction(rng))
    return Series(modulus, {e: p for e, p in coeffs.items() if not p.is_zero})


class TestNameOrder:
    def test_numeric_suffix_sorts_numerically(self):
        names = ["a10", "b7", "a9", "c15", "a5"]
        assert sorted(names, key=name_key) == ["a5", "a9", "a10", "b7", "c15"]


class TestPoly:
    def test_difference_of_squares(self):
        x = Poly.variable("x")
        y = Poly.variable("y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_cancellation_gives_zero(self):
        x = Poly.variable("x")
        p = 3 * x - x.scale(3)
        assert p.is_zero
        assert p == Poly.zero()

    def test_fraction_and_int_coefficients_mix(self):
        x = Poly.variable("x")
        p = x.scale(Fraction(2, 3)) * Poly.const(3)
        assert p == 2 * x
        assert hash(p) == hash(x.scale(2))
        assert str(p) == "2*x"

    def test_pow(self):
        p = Poly.variable("x") + Poly.const(1)
        assert p ** 3 == p * p * p
        assert p ** 0 == Poly.const(1)
        assert Poly.zero() ** 0 == Poly.const(1)
        with pytest.raises(ValueError):
            p ** -1

    def test_ring_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(60):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + Poly.zero() == p
            assert p * Poly.const(1) == p
            assert (p - p).is_zero

    def test_total_degree_and_variables(self):
        p = parse_poly("5*a5^3 - 2*a5*b7^2 + 3")
        assert p.total_degree() == 3
        assert p.variables() == {"a5", "b7"}
        assert Poly.zero().total_degree() == -1

    def test_coefficient_lookup(self):
        p = parse_poly("5*a5^3 - 2*a5*b7^2")
        assert p.coefficient({"a5": 1, "b7": 2}) == -2
        assert p.coefficient({"a5": 2}) == 0

    def test_constant_value(self):
        assert Poly.const(Fraction(7, 2)).constant_value() == Fraction(7, 2)
        assert Poly.zero().constant_value() == 0
        assert Poly.variable("x").constant_value() is None

    def test_evaluate_basic(self):
        p = parse_poly("a5^2*b7 - 1/2*a5 + 3")
        value = p.evaluate({"a5": Fraction(2), "b7": Fraction(1, 4)})
        assert value == Fraction(2) ** 2 * Fraction(1, 4) - 1 + 3

    def test_evaluate_missing_variable(self):
        with pytest.raises(UnboundVariable, match="b7"):
            Poly.variable("b7").evaluate({"a5": Fraction(1)})

    def test_evaluate_accepts_ints(self):
        p = parse_poly("2*x*y - y")
        assert p.evaluate({"x": 3, "y": 2}) == 10

    def test_evaluate_converts_other_values(self):
        p = parse_poly("4*x^2 - y")
        assert p.evaluate({"x": "1/2", "y": 0.5}) == Fraction(1, 2)
        value = p.evaluate({"x": 0.5, "y": "1"})
        assert value == 0 and isinstance(value, int)

    def test_substitute(self):
        p = parse_poly("x^2 + x*y")
        r = parse_poly("y - 1")
        expected = r * r + r * Poly.variable("y")
        assert p.substitute("x", r) == expected
        # substitution for an absent variable is a no-op
        assert p.substitute("z", r) == p

    def test_substitute_eliminates_variable(self):
        rng = random.Random(17)
        for _ in range(30):
            p = rand_poly(rng)
            replacement = rand_poly(rng, names=("b7", "c15"))
            q = p.substitute("a5", replacement)
            assert "a5" not in q.variables()

    def test_extract_linear_simple(self):
        p = parse_poly("-a10 - 3*b17 + 3*c20")
        alpha, rest = p.extract_linear("c20")
        assert alpha == 3
        assert rest == parse_poly("-a10 - 3*b17")

    def test_extract_linear_rejects_polynomial_coefficient(self):
        p = parse_poly("a5*b9 + b9")
        assert p.extract_linear("b9") is None

    def test_extract_linear_rejects_higher_power(self):
        p = parse_poly("x^2")
        assert p.extract_linear("x") is None
        assert (parse_poly("x^2 + x")).extract_linear("x") is None

    def test_extract_linear_absent_variable(self):
        assert parse_poly("a5 + 1").extract_linear("b7") is None

    def test_extract_linear_reconstructs(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(80):
            p = rand_poly(rng) + Poly.variable("d3").scale(random_fraction(rng))
            got = p.extract_linear("d3")
            if got is None:
                continue
            hits += 1
            alpha, rest = got
            assert p == Poly.variable("d3").scale(alpha) + rest
            assert "d3" not in rest.variables()
        assert hits > 10

    def test_str_ordering_and_signs(self):
        p = parse_poly("2*b9 - 3*a7 + 5*a5^3")
        assert str(p) == "5*a5^3 - 3*a7 + 2*b9"
        assert str(Poly.zero()) == "0"
        assert str(Poly.const(Fraction(-1, 2))) == "-1/2"
        assert str(Poly.variable("a9") + Poly.variable("a10")) == "a9 + a10"

    def test_poly_sum(self):
        rng = random.Random(5)
        polys = [rand_poly(rng) for _ in range(6)]
        total = Poly.zero()
        for p in polys:
            total = total + p
        assert poly_sum(polys) == total
        assert poly_sum([]).is_zero


class TestSeries:
    def test_term_and_str(self):
        s = Series.term(16, 13, 2) + Series.term(16, 14, 1)
        assert str(s) == "2*t^13 + t^14"
        assert str(Series.zero(5)) == "0"
        assert str(Series.one(5)) == "1"
        assert str(Series.term(9, 3, Fraction(-1, 2))) == "-1/2*t^3"

    def test_symbolic_coefficient_str(self):
        s = Series.term(16, 13, parse_poly("2*b7 - 3*a5"))
        assert str(s) == "(-3*a5 + 2*b7)*t^13"

    def test_mul_truncates(self):
        s = Series.term(16, 13, 1)
        u = Series.term(16, 4, 1)
        assert (s * u).is_zero
        t6 = Series.term(16, 6, 1)
        t7 = Series.term(16, 7, 1)
        sq = (t6 + t7) ** 2
        assert sq == Series.term(16, 12, 1) + Series.term(16, 13, 2) + Series.term(16, 14, 1)

    def test_pow_zero_is_one(self):
        s = Series.term(10, 3, 5)
        assert s ** 0 == Series.one(10)
        with pytest.raises(ValueError):
            s ** -2

    def test_order_and_support(self):
        s = Series.term(20, 7, 1) - Series.term(20, 11, Fraction(1, 3))
        assert s.order() == 7
        assert s.support() == [7, 11]
        assert Series.zero(20).order() is None

    def test_order_of_product_adds(self):
        rng = random.Random(31)
        for _ in range(40):
            s, u = rand_series(rng), rand_series(rng)
            if s.is_zero or u.is_zero:
                continue
            product = s * u
            total = s.order() + u.order()
            if total < s.modulus:
                # leading coefficients are nonzero rationals, so no collapse
                assert product.order() == total
            else:
                assert product.order() is None or product.order() >= total

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            Series.one(4) + Series.one(5)
        with pytest.raises(ModulusMismatch):
            Series.one(4) * Series.one(5)

    def test_exponent_range_handling(self):
        # exponents at or past the modulus are truncated away
        assert Series(4, {4: Poly.const(1)}).is_zero
        with pytest.raises(ValueError):
            Series(4, {-1: Poly.const(1)})
        with pytest.raises(ValueError):
            Series(0, {})

    def test_additive_group_randomized(self):
        rng = random.Random(47)
        for _ in range(40):
            s, u = rand_series(rng), rand_series(rng)
            assert s + u == u + s
            assert (s - u) + u == s
            assert (s + (-s)).is_zero
            assert s.scale(Fraction(1, 2)).scale(2) == s

    def test_scale_by_poly(self):
        s = Series.term(10, 3, 1) + Series.term(10, 5, 2)
        q = parse_poly("a5 - 1")
        scaled = s.scale(q)
        assert scaled.coefficient(3) == q
        assert scaled.coefficient(5) == q.scale(2)

    def test_distributivity_randomized(self):
        rng = random.Random(59)
        for _ in range(30):
            s, u, w = (rand_series(rng) for _ in range(3))
            assert s * (u + w) == s * u + s * w
            assert s * u == u * s

    def test_eq_and_hash(self):
        a = Series.term(8, 3, Fraction(2, 1))
        b = Series.term(8, 3, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Series.term(9, 3, 2)


# -- properties of the shared loops and of the rendering order --------------

NAMES = ("a5", "b7", "c15")
fractions = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3))
)
monomials = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3))
polys = st.lists(st.tuples(monomials, fractions), max_size=4).map(
    lambda terms: poly_sum(Poly.monomial(m, c) for m, c in terms)
)
# two variables, low degrees and small coefficients, so that products and
# substitutions cancel terms often
dense_polys = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(NAMES[:2]), st.integers(0, 2)), st.integers(-2, 2)
    ),
    max_size=4,
).map(lambda terms: poly_sum(Poly.monomial(m, c) for m, c in terms))


# wider denominators and exponents, for evaluation against the plain fold
wide_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
wide_polys = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(NAMES), st.integers(0, 5)), wide_fractions),
    max_size=6,
).map(lambda terms: poly_sum(Poly.monomial(m, c) for m, c in terms))


def naive_evaluate(p, point):
    """Plain Fraction fold over the terms: the reference for evaluate."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        value = Fraction(coeff)
        for var, e in mono:
            value *= Fraction(point[var]) ** e
        total += value
    return total


def is_normalized(scalar):
    return isinstance(scalar, int) or scalar.denominator > 1


def series(modulus, coefficients=polys):
    return st.dictionaries(st.integers(0, modulus - 1), coefficients, max_size=4).map(
        lambda coeffs: Series(modulus, coeffs)
    )


class TestArithmeticProperties:
    @given(polys, polys)
    def test_poly_sub_is_add_of_negation(self, p, q):
        assert p - q == p + (-q)
        assert (p - q) + q == p

    @given(st.lists(polys, max_size=6))
    def test_poly_sum_is_fold_of_add(self, ps):
        assert poly_sum(ps) == functools.reduce(operator.add, ps, Poly.zero())

    @given(polys, st.integers(0, 4))
    def test_poly_pow_is_repeated_mul(self, p, n):
        assert p ** n == functools.reduce(operator.mul, [p] * n, Poly.const(1))

    @given(series(9), series(9))
    def test_series_sub_is_add_of_negation(self, s, u):
        assert s - u == s + (-u)
        assert (s - u) + u == s

    @given(series(9), series(7))
    def test_series_sub_checks_modulus(self, s, u):
        with pytest.raises(ModulusMismatch):
            s - u
        with pytest.raises(ModulusMismatch):
            s + (-u)

    # symbolic series powers take tens of ms, so no per-example deadline
    @settings(deadline=None)
    @given(series(9), st.integers(0, 4))
    def test_series_pow_is_repeated_mul(self, s, n):
        assert s ** n == functools.reduce(operator.mul, [s] * n, Series.one(9))

    @given(series(5, dense_polys), series(5, dense_polys))
    def test_series_mul_is_truncated_convolution(self, s, u):
        convolution = {
            k: poly_sum(p * q for i, p in s.items() for j, q in u.items() if i + j == k)
            for k in range(5)
        }
        assert s * u == Series(5, convolution)

    @given(
        series(6, dense_polys), series(6, dense_polys), dense_polys,
        st.integers(0, 5), st.integers(0, 6),
    )
    def test_mutable_series_is_sum_of_scaled_tail(self, s, u, f, popped, start):
        work = MutableSeries(s)
        assert work.pop(popped) == s.coefficient(popped)
        work.add_product(u, f, start)
        rest = s - Series.term(6, popped, s.coefficient(popped))
        tail = Series(6, {e: p for e, p in u.items() if e >= start})
        assert work.freeze() == rest + tail.scale(f)

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=2, max_size=2
            )
        )
    )
    def test_truncated_product_is_series_product(self, rows):
        n = len(rows[0])
        a, b = (Series(n, {e: Poly.const(x) for e, x in enumerate(r)}) for r in rows)
        expected = [(a * b).coefficient(e).constant_value() for e in range(n)]
        assert truncated_product(*rows) == expected

    def test_merged_factor_pairs_are_shared(self):
        # large products hold thousands of monomials but few distinct pairs
        x = Poly.variable("a5")
        squares = [(x + Poly.variable(name)) ** 2 for name in ("b7", "c15")]
        pairs = [pair for p in squares for mono, _ in p.terms() for pair in mono]
        assert len({id(pair) for pair in pairs if pair == ("a5", 2)}) == 1

    @given(
        dense_polys,
        dense_polys,
        st.sampled_from(NAMES[:2]),
        st.fixed_dictionaries({n: fractions for n in NAMES}),
    )
    def test_substitute_commutes_with_evaluation(self, p, r, name, point):
        bound = {**point, name: r.evaluate(point)}
        assert p.substitute(name, r).evaluate(point) == p.evaluate(bound)

    # points bind an unused extra variable too
    @given(wide_polys, st.fixed_dictionaries({n: wide_fractions for n in (*NAMES, "z9")}))
    def test_evaluate_is_fraction_fold(self, p, point):
        value = p.evaluate(point)
        assert value == naive_evaluate(p, point)
        assert is_normalized(value)

    @example(Poly.const(Fraction(1, 2)), Poly.variable("a5"), Fraction(2), 1, "a5")
    @given(polys, polys, fractions, st.integers(0, 3), st.sampled_from(NAMES))
    def test_coefficients_are_int_when_integral(self, p, q, f, n, name):
        products = (p * q * Poly.const(2), p.scale(f), p ** n, p.substitute(name, q))
        for r in (p + q, p - q, *products):
            assert all(is_normalized(c) for _, c in r.terms())

    @given(polys, st.sampled_from(NAMES))
    def test_substitute_variable_by_itself_is_identity(self, p, name):
        assert p.substitute(name, Poly.variable(name)) == p

    @given(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(("a9", "a10", "b7")), st.integers(0, 3)),
                fractions,
            ),
            max_size=6,
        )
    )
    def test_rendering_order_is_degree_then_expanded_word(self, terms):
        def word(mono):
            ordered = sorted(mono, key=lambda ve: name_key(ve[0]))
            return [name_key(var) for var, e in ordered for _ in range(e)]

        p = poly_sum(Poly.monomial(m, c) for m, c in terms)
        expected = sorted(p.terms(), key=lambda mc: (-sum(e for _, e in mc[0]), word(mc[0])))
        assert p.sorted_terms() == expected
