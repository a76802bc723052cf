"""Brute-force linear-algebra oracle for subalgebra closures."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import on_variety_values, random_point, random_semigroup
from rgamma import (
    ModulusMismatch,
    OrderZeroGenerator,
    build_template,
    canonical_normal_form,
    echelon_basis,
    enumerate_sdec_below_conductor,
    from_generators,
    instantiate,
    is_normal_form,
    subalgebra_closure_semigroup,
    verify_point,
)
from rgamma.oracle import _closure_basis
from rgamma.symcore import Poly, Series


def series_from_exponents(modulus, *exponents):
    out = Series.zero(modulus)
    for exp in exponents:
        out = out + Series.term(modulus, exp, 1)
    return out


def naive_rref(rows, modulus):
    """Plain Fraction Gauss-Jordan: the reference for echelon_basis."""
    rows = [list(row) for row in rows]
    pivots = []
    rank = 0
    for col in range(modulus):
        found = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def naive_closure(generators):
    """Every product of generators (as a multiset) with order sum below the
    modulus, multiplied as Series and row-reduced by naive_rref: the
    reference for the oracle's closure basis."""
    modulus = generators[0].modulus
    ordered = sorted(
        ((s.order(), s) for s in generators if not s.is_zero), key=lambda pair: pair[0]
    )
    spanning = [Series.one(modulus)]
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
    rows = [
        [Fraction(s.coefficient(e).constant_value()) for e in range(modulus)]
        for s in spanning
    ]
    return naive_rref(rows, modulus)


def naive_minimal_generators(positive, modulus):
    """The minimal generators of the semigroup made of the given positive
    orders and everything from the modulus on, by exhaustive search."""

    def member(n):
        return n in positive or n >= modulus

    least = min(positive) if positive else modulus
    return [
        n
        for n in range(1, modulus + least)
        if member(n)
        and not any(member(a) and member(n - a) for a in range(least, n - least + 1))
    ]


def row_series(modulus, row):
    return Series(modulus, {e: Poly.const(q) for e, q in enumerate(row) if q})


# sparse rational entries, half of them zero
entries = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 10))
)


class TestEchelonBasis:
    @given(
        st.integers(1, 9).flatmap(
            lambda m: st.lists(st.lists(entries, min_size=m, max_size=m), min_size=1, max_size=6)
        )
    )
    def test_equals_fraction_gauss_jordan(self, base):
        modulus = len(base[0])
        # a zero row, a duplicate row and a combination make the set rank-deficient
        combination = [2 * x - y / 3 for x, y in zip(base[0], base[-1])]
        rows = base + [[Fraction(0)] * modulus, base[0], combination]
        expected_rows, expected_pivots = naive_rref(rows, modulus)
        basis = echelon_basis([row_series(modulus, row) for row in rows])
        assert basis.pivot_orders == tuple(expected_pivots)
        assert basis.rows == tuple(row_series(modulus, row) for row in expected_rows)

    def test_known_rref(self):
        rows = [
            series_from_exponents(6, 1, 2),
            series_from_exponents(6, 1, 3),
        ]
        basis = echelon_basis(rows)
        assert basis.pivot_orders == (1, 2)
        # row reduction: r1 - r0 = t^3 - t^2, then clear t^2 from r0
        assert basis.rows[0] == series_from_exponents(6, 1, 3)
        assert basis.rows[1] == Series.term(6, 2, 1) - Series.term(6, 3, 1)

    def test_dependent_rows_collapse(self):
        s = series_from_exponents(8, 2, 5)
        basis = echelon_basis([s, s.scale(3), s.scale(Fraction(-1, 2))])
        assert basis.pivot_orders == (2,)
        assert basis.rows == (s,)

    def test_rref_shape_randomized(self):
        rng = random.Random(211)
        for _ in range(25):
            modulus = rng.randint(4, 12)
            rows = []
            for _ in range(rng.randint(1, 6)):
                coeffs = {
                    rng.randrange(modulus): Poly.const(
                        Fraction(rng.randint(-4, 4))
                    )
                    for _ in range(rng.randint(0, 4))
                }
                rows.append(Series(modulus, coeffs))
            basis = echelon_basis(rows)
            pivots = basis.pivot_orders
            assert list(pivots) == sorted(pivots)
            for row, pivot in zip(basis.rows, pivots):
                assert row.order() == pivot
                assert row.coefficient(pivot) == Poly.const(1)
                for other in basis.rows:
                    if other is not row:
                        assert other.coefficient(pivot).is_zero

    def test_span_is_idempotent(self):
        rng = random.Random(223)
        for _ in range(15):
            modulus = rng.randint(4, 10)
            rows = [
                Series(
                    modulus,
                    {
                        rng.randrange(modulus): Poly.const(rng.randint(1, 5))
                        for _ in range(rng.randint(1, 3))
                    },
                )
                for _ in range(rng.randint(1, 4))
            ]
            basis = echelon_basis(rows)
            again = echelon_basis(list(basis.rows))
            assert again.rows == basis.rows
            assert again.pivot_orders == basis.pivot_orders

    def test_validation(self):
        with pytest.raises(OrderZeroGenerator):
            echelon_basis([])
        with pytest.raises(ModulusMismatch):
            echelon_basis([Series.one(4), Series.one(5)])
        with pytest.raises(ValueError):
            echelon_basis([Series.term(4, 1, Poly.variable("a5"))])


@st.composite
def numeric_generators(draw):
    """One to four numeric series of positive order, orders drawn from a
    short range so that equal orders are common; zero series included."""
    modulus = draw(st.integers(2, 14))
    generators = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 9)) == 0:
            generators.append(Series.zero(modulus))
            continue
        order = draw(st.integers(1, min(modulus - 1, 5)))
        lead = draw(entries.filter(bool))
        size = modulus - order - 1
        tail = draw(st.lists(entries, min_size=size, max_size=size))
        row = [0] * order + [lead] + tail
        generators.append(row_series(modulus, row))
    return generators


class TestClosure:
    @given(numeric_generators())
    def test_equals_series_product_closure(self, generators):
        expected_rows, expected_pivots = naive_closure(generators)
        modulus = generators[0].modulus
        basis = _closure_basis(generators)
        assert basis.pivot_orders == tuple(expected_pivots)
        assert basis.rows == tuple(row_series(modulus, row) for row in expected_rows)
        assert subalgebra_closure_semigroup(generators) == frozenset(
            p for p in expected_pivots if p > 0
        )

    def test_equal_orders(self):
        # x and x + t^3 share order 2; their difference adds order 3
        x = series_from_exponents(8, 2)
        y = series_from_exponents(8, 2, 3)
        expected_rows, expected_pivots = naive_closure([x, y])
        basis = _closure_basis([x, y])
        assert basis.pivot_orders == tuple(expected_pivots) == (0, 2, 3, 4, 5, 6, 7)
        assert basis.rows == tuple(row_series(8, row) for row in expected_rows)

    def test_known_monomial_algebra(self):
        gens = [Series.term(16, v, 1) for v in (4, 6, 13)]
        closure = subalgebra_closure_semigroup(gens)
        gamma = from_generators([4, 6, 13])
        assert closure == frozenset(gamma.elements_below_conductor)

    def test_perturbed_generators_grow_closure(self):
        # x_1 tail at t^9 breaks the b9 relation, so new orders appear
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        point = template.point({"b7": 1}, fill_missing=True)
        closure = subalgebra_closure_semigroup(instantiate(template, point))
        expected = frozenset(gamma.elements_below_conductor)
        assert closure != expected
        assert closure > expected
        assert 15 in closure

    def test_unit_generator_rejected(self):
        with pytest.raises(OrderZeroGenerator):
            subalgebra_closure_semigroup([Series.one(8)])

    def test_zero_generators_give_empty_closure(self):
        assert subalgebra_closure_semigroup([Series.zero(6)]) == frozenset()

    def test_permutation_invariance(self):
        rng = random.Random(227)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=30)
            template = build_template(gamma)
            series = [
                s
                for s in instantiate(template, random_point(rng, template))
                if not s.is_zero
            ]
            if not series:
                continue
            baseline = subalgebra_closure_semigroup(series)
            shuffled = series[:]
            rng.shuffle(shuffled)
            assert subalgebra_closure_semigroup(shuffled) == baseline

    def test_closure_contains_generated_orders(self):
        rng = random.Random(229)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=30)
            template = build_template(gamma)
            series = instantiate(template, random_point(rng, template))
            closure = subalgebra_closure_semigroup(
                [s for s in series if not s.is_zero]
            )
            assert closure >= frozenset(gamma.elements_below_conductor)


class TestCanonicalNormalForm:
    @given(numeric_generators())
    def test_detected_generators_are_minimal(self, generators):
        modulus = generators[0].modulus
        positive = subalgebra_closure_semigroup(generators)
        detected, _ = canonical_normal_form(generators)
        assert list(detected.generators) == naive_minimal_generators(positive, modulus)

    def test_strips_semigroup_tail(self):
        # t^3 + t^4 + t^5 over <3,5>: the t^5 term lies in the algebra
        s0 = series_from_exponents(8, 3, 4, 5)
        s1 = series_from_exponents(8, 5)
        detected, normal = canonical_normal_form([s0, s1])
        assert detected.generators == (3, 5)
        assert normal == (series_from_exponents(8, 3, 4), series_from_exponents(8, 5))
        assert is_normal_form(normal, detected)

    def test_already_normal_is_fixed(self):
        s = Series(4, {2: Poly.const(1), 3: Poly.const(1)})
        detected, normal = canonical_normal_form([s])
        assert detected.generators == (2, 5)
        assert normal == (s, Series.zero(4))

    def test_monomial_generators_unchanged(self):
        gens = [Series.term(16, v, 1) for v in (4, 6, 13)]
        detected, normal = canonical_normal_form(gens)
        assert detected.generators == (4, 6, 13)
        assert list(normal) == gens

    def test_round_trip_randomized(self):
        rng = random.Random(233)
        for _ in range(15):
            gamma = random_semigroup(rng, max_conductor=25)
            template = build_template(gamma)
            series = [
                s
                for s in instantiate(template, random_point(rng, template))
                if not s.is_zero
            ]
            if not series:
                continue
            detected, normal = canonical_normal_form(series)
            assert is_normal_form(normal, detected)
            modulus = series[0].modulus
            closure = subalgebra_closure_semigroup(series)
            assert closure == frozenset(
                n for n in range(1, modulus) if detected.contains(n)
            )


class TestVerifyPoint:
    def test_zero_point_verifies(self, g4613):
        template = build_template(g4613)
        assert verify_point(g4613, template.zero_point())

    def test_off_variety_point_fails(self, g4613):
        template = build_template(g4613)
        point = template.point({"b7": 1}, fill_missing=True)
        assert not verify_point(g4613, point)

    def test_on_variety_point_verifies(self, g4613):
        template = build_template(g4613)
        point = template.point(
            {"b7": 1, "b9": Fraction(1, 2)}, fill_missing=True
        )
        assert verify_point(g4613, point)

    def test_degenerate_whole_numbers(self):
        gamma = from_generators([1])
        template = build_template(gamma)
        assert verify_point(gamma, template.zero_point())

    def test_leaves_no_reference_cycles(self, g4613):
        template = build_template(g4613)
        point = template.point({"b7": 1, "b9": Fraction(1, 2)}, fill_missing=True)
        verify_point(g4613, point)
        gc.collect()
        gc.disable()
        try:
            verify_point(g4613, point)
            enumerate_sdec_below_conductor(g4613)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_two_generator_points_always_verify(self):
        rng = random.Random(239)
        for pair in ((2, 5), (3, 7), (4, 9)):
            gamma = from_generators(pair)
            template = build_template(gamma)
            for _ in range(5):
                assert verify_point(gamma, random_point(rng, template))
