"""Reduction of truncated series against normal-form generators."""

import random
from fractions import Fraction

import pytest

from conftest import parse_poly, random_fraction, random_point, random_semigroup
from rgamma import (
    ArityMismatch,
    DomainError,
    EmptyInput,
    InvalidIndices,
    ModulusMismatch,
    NotNormalForm,
    ReductionContext,
    build_template,
    from_generators,
    instantiate,
    phi_eval,
    reduce,
    reduce_subset,
)
from rgamma.symcore import Poly, Series


def numeric_generators(gamma, rng=None, assignment=None):
    template = build_template(gamma)
    if assignment is not None:
        point = template.point(assignment, fill_missing=True)
    elif rng is not None:
        point = random_point(rng, template)
    else:
        point = template.zero_point()
    return template, instantiate(template, point)


def random_input_series(rng, modulus, max_terms=5):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        value = random_fraction(rng)
        if value:
            coeffs[rng.randrange(modulus)] = Poly.const(value)
    return Series(modulus, coeffs)


class TestPhiEval:
    def test_substitutes_generators(self):
        gamma = from_generators([4, 6, 13])
        template, gens = numeric_generators(gamma, assignment={"b7": 1})
        f = parse_poly("y^2 - x^3")
        # x_1^2 = (t^6 + t^7)^2 = t^12 + 2 t^13 + t^14, x_0^3 = t^12
        assert phi_eval(gens, f) == Series.term(16, 13, 2) + Series.term(16, 14, 1)

    def test_identity_on_single_variable(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        assert phi_eval(gens, Poly.monomial({"x": 1})) == gens[0]
        assert phi_eval(gens, Poly.monomial({"z": 1})) == gens[2]

    def test_constants_pass_through(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        assert phi_eval(gens, Poly.const(Fraction(3, 2))) == Series.term(
            16, 0, Fraction(3, 2)
        )
        assert phi_eval(gens, Poly.zero()).is_zero

    def test_symbolic_generators(self):
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        image = phi_eval(template.generators, parse_poly("y^2 - x^3"))
        assert image.coefficient(13) == parse_poly("2*b7 - 3*a5")
        assert image.coefficient(12).is_zero

    def test_coefficient_variables_ride_along(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        f = Poly.monomial({"x": 1, "q": 1})
        image = phi_eval(gens, f)
        assert image.coefficient(4) == Poly.variable("q")

    def test_arity_mismatch(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        with pytest.raises(ArityMismatch):
            phi_eval(gens[:2], parse_poly("y^2 - x^3"), names=("x", "y", "z"))


class TestReduce:
    def test_worked_example(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma, assignment={"b7": 1})
        r = phi_eval(gens, parse_poly("y^2 - x^3"))
        assert r == Series.term(16, 13, 2) + Series.term(16, 14, 1)
        trace = reduce(gamma, gens, r)
        assert [
            (s.power, str(s.multiplier), s.factorization) for s in trace.steps
        ] == [
            (13, "2", (0, 0, 1)),
            (14, "1", (2, 1, 0)),
        ]
        assert trace.reduced == Series.term(16, 15, -1)
        assert str(trace.witness) == "x^2*y + 2*z"

    def test_reconstruction_worked_example(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma, assignment={"b7": 1})
        r = phi_eval(gens, parse_poly("y^2 - x^3"))
        trace = reduce(gamma, gens, r)
        assert trace.reduced + phi_eval(gens, trace.witness) == r

    def test_residue_vanishes_at_solution(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(
            gamma, assignment={"b7": 1, "b9": Fraction(1, 2)}
        )
        r = phi_eval(gens, parse_poly("y^2 - x^3"))
        assert reduce(gamma, gens, r).reduced.is_zero

    def test_gap_supported_input_is_fixed(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        r = Series.term(16, 5, 3) - Series.term(16, 15, Fraction(1, 2))
        trace = reduce(gamma, gens, r)
        assert trace.steps == ()
        assert trace.reduced == r
        assert trace.witness.is_zero

    def test_symbolic_equation_coefficient(self):
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        image = phi_eval(template.generators, parse_poly("y^2 - x^3"))
        trace = reduce(gamma, template.generators, image)
        assert trace.reduced.support() == [15]
        assert trace.reduced.coefficient(15) == parse_poly(
            "5*a5^3 + 3*a5^2*b7 - 2*a5*b7^2 - b7^3 + 3*a5*c15 "
            "- 2*b7*c15 - 3*a7 + 2*b9"
        )

    def test_symbolic_9_16_19_small_binomial(self):
        gamma = from_generators([9, 16, 19])
        template = build_template(gamma)
        image = phi_eval(template.generators, parse_poly("z^3 - x*y^3"))
        trace = reduce(gamma, template.generators, image)
        assert trace.reduced.support() == [58]
        assert trace.reduced.coefficient(58) == parse_poly("-a10 - 3*b17 + 3*c20")

    def test_json_shape(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma, assignment={"b7": 1})
        trace = reduce(gamma, gens, Series.term(16, 13, 2))
        assert trace.to_json_dict() == {
            "reduced": "0",
            "steps": [
                {"power": 13, "multiplier": "2", "factorization": [0, 0, 1]}
            ],
        }


class TestReduceSubset:
    def test_subset_keeps_excluded_powers(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma, assignment={"b7": 1})
        r = phi_eval(gens, parse_poly("y^2 - x^3"))
        trace = reduce_subset(gamma, (0, 1), gens, r)
        # 13 is only reachable through the third generator, so it survives
        assert 13 in trace.reduced.support()

    def test_subset_single_generator(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        trace = reduce_subset(gamma, (0,), gens, Series.term(16, 8, 1))
        assert trace.reduced.is_zero
        assert [s.factorization for s in trace.steps] == [(2, 0, 0)]

    def test_full_subset_matches_reduce(self):
        rng = random.Random(19)
        for _ in range(15):
            gamma = random_semigroup(rng, max_conductor=30)
            _, gens = numeric_generators(gamma, rng=rng)
            r = random_input_series(rng, gens[0].modulus)
            full = reduce(gamma, gens, r)
            subset = reduce_subset(gamma, tuple(range(len(gens))), gens, r)
            assert full.reduced == subset.reduced
            assert full.steps == subset.steps

    def test_empty_subset_rejected(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        with pytest.raises(EmptyInput):
            reduce_subset(gamma, (), gens, Series.term(16, 8, 1))

    def test_out_of_range_subset_rejected(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        for indices in ((5,), (0, 3), (-1, 1)):
            with pytest.raises(InvalidIndices) as caught:
                reduce_subset(gamma, indices, gens, Series.term(16, 8, 1))
            assert isinstance(caught.value, DomainError)
            assert isinstance(caught.value, ValueError)


class TestContextValidation:
    def test_wrong_modulus_input(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        ctx = ReductionContext(gamma, gens)
        with pytest.raises(ModulusMismatch):
            ctx.reduce(Series.term(8, 5, 1))

    def test_wrong_generator_count(self):
        gamma = from_generators([4, 6, 13])
        _, gens = numeric_generators(gamma)
        with pytest.raises(ArityMismatch):
            ReductionContext(gamma, gens[:2])

    def test_non_normal_form_generators(self):
        gamma = from_generators([4, 6, 13])
        bad = [Series.term(16, v, 1) for v in gamma.generators]
        bad[0] = bad[0] + Series.term(16, 8, 1)
        with pytest.raises(NotNormalForm):
            ReductionContext(gamma, bad)

    def test_wrong_generator_modulus(self):
        gamma = from_generators([4, 6, 13])
        gens = [Series.term(8, v, 1) for v in (4, 6, 13)]
        with pytest.raises(ModulusMismatch):
            ReductionContext(gamma, gens)


class TestInvariants:
    def test_battery(self):
        rng = random.Random(2718)
        for _ in range(60):
            gamma = random_semigroup(rng, max_conductor=30)
            template, gens = numeric_generators(gamma, rng=rng)
            ctx = ReductionContext(gamma, gens)
            removable = set(gamma.elements_below_conductor)
            r = random_input_series(rng, template.modulus)
            trace = ctx.reduce(r)

            # support: nothing representable survives
            assert not set(trace.reduced.support()) & removable

            # reconstruction: input = reduced + phi(witness)
            assert trace.reduced + phi_eval(gens, trace.witness) == r

            # idempotence: a reduced series is a fixed point
            again = ctx.reduce(trace.reduced)
            assert again.steps == ()
            assert again.reduced == trace.reduced

            # linearity
            s = random_input_series(rng, template.modulus)
            a, b = random_fraction(rng), random_fraction(rng)
            combined = ctx.reduce(r.scale(a) + s.scale(b))
            assert combined.reduced == trace.reduced.scale(a) + ctx.reduce(s).reduced.scale(b)

            # removed powers climb strictly, starting at the input's order
            if trace.steps:
                powers = [step.power for step in trace.steps]
                assert powers == sorted(set(powers))
                order = r.order()
                assert powers[0] >= order
                if order not in removable:
                    assert powers[0] > order
