"""Symbolic normal-form templates and coefficient points."""

import random
from fractions import Fraction

import pytest

from conftest import random_point, random_semigroup
from rgamma import (
    CoefficientPoint,
    UnboundVariable,
    UnknownVariable,
    build_template,
    from_generators,
    instantiate,
    is_normal_form,
)
from rgamma.errors import ModulusMismatch
from rgamma.normalform import template_modulus
from rgamma.symcore import Poly, Series


class TestTemplateShape:
    def test_4_6_13_variables(self):
        template = build_template(from_generators([4, 6, 13]))
        assert template.variables == (
            "a5", "a7", "a9", "a11", "a15",
            "b7", "b9", "b11", "b15",
            "c15",
        )
        assert template.modulus == 16

    def test_4_11_14_generators(self):
        template = build_template(from_generators([4, 11, 14]))
        x0, x1, x2 = template.generators
        assert x0.coefficient(4) == Poly.const(1)
        assert x0.support() == [4, 5, 6, 7, 9, 10, 13, 17, 21]
        for delta in (5, 6, 7, 9, 10, 13, 17, 21):
            assert x0.coefficient(delta) == Poly.variable(f"a{delta}")
        assert x1.support() == [11, 13, 17, 21]
        assert x1.coefficient(13) == Poly.variable("b13")
        assert x2.support() == [14, 17, 21]
        assert x2.coefficient(21) == Poly.variable("c21")

    def test_generator_past_conductor_is_zero(self):
        gamma = from_generators([2, 5])
        template = build_template(gamma)
        assert template.modulus == 4
        assert template.variables == ("a3",)
        x0, x1 = template.generators
        assert x0 == Series(4, {2: Poly.const(1), 3: Poly.variable("a3")})
        assert x1.is_zero

    def test_whole_numbers_degenerate(self):
        gamma = from_generators([1])
        template = build_template(gamma)
        assert template.modulus == 1
        assert template.variables == ()
        assert template.generators == (Series.zero(1),)
        assert template_modulus(gamma) == 1

    def test_variable_count_matches_dimension(self):
        rng = random.Random(71)
        for _ in range(30):
            gamma = random_semigroup(rng, max_conductor=60)
            template = build_template(gamma)
            assert len(template.variables) == gamma.ambient_dimension()

    def test_json_shape(self):
        template = build_template(from_generators([2, 5]))
        assert template.to_json_dict() == {
            "generators": [
                {"lead": 2, "terms": [{"exp": 3, "var": "a3"}]},
                {"lead": 5, "terms": []},
            ],
            "variables": ["a3"],
        }


class TestVariableNames:
    def test_display_and_canonical(self):
        template = build_template(from_generators([4, 6, 13]))
        assert template.variable_name(0, 5) == "a5"
        assert template.variable_name(2, 15) == "c15"
        assert template.resolve("g0d5") == "a5"
        assert template.resolve("b9") == "b9"
        assert template.canonical_name("b9") == "g1d9"
        assert template.canonical_name("g2d15") == "g2d15"
        with pytest.raises(UnknownVariable):
            template.canonical_name("q1")

    def test_unknown_slot(self):
        template = build_template(from_generators([4, 6, 13]))
        with pytest.raises(UnknownVariable):
            template.variable_name(0, 4)
        with pytest.raises(UnknownVariable):
            template.resolve("q1")


class TestPoints:
    def test_point_requires_every_variable(self):
        template = build_template(from_generators([4, 6, 13]))
        with pytest.raises(UnboundVariable):
            template.point({"a5": 1})

    def test_fill_missing(self):
        template = build_template(from_generators([4, 6, 13]))
        point = template.point({"b7": 1}, fill_missing=True)
        assert point["b7"] == 1
        assert point["a5"] == 0
        assert len(point.values) == 10

    def test_canonical_spelling_accepted(self):
        template = build_template(from_generators([4, 6, 13]))
        point = template.point({"g1d7": Fraction(1, 2)}, fill_missing=True)
        assert point["b7"] == Fraction(1, 2)

    def test_double_binding_rejected(self):
        template = build_template(from_generators([4, 6, 13]))
        with pytest.raises(UnknownVariable):
            template.point({"b7": 1, "g1d7": 2}, fill_missing=True)

    def test_unknown_name_rejected(self):
        template = build_template(from_generators([4, 6, 13]))
        with pytest.raises(UnknownVariable):
            template.point({"z9": 1}, fill_missing=True)

    def test_zero_point(self):
        template = build_template(from_generators([4, 6, 13]))
        point = template.zero_point()
        assert all(v == 0 for _, v in point.values)
        assert str(build_template(from_generators([1])).zero_point()) == "(no coefficients)"


class TestInstantiate:
    def test_zero_point_gives_monomials(self):
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        series = instantiate(template, template.zero_point())
        assert [s.order() for s in series] == [4, 6, 13]
        for s, v in zip(series, gamma.generators):
            assert s == Series.term(16, v, 1)

    def test_values_land_in_coefficients(self):
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        point = template.point({"b7": 1, "b9": Fraction(1, 2)}, fill_missing=True)
        x1 = instantiate(template, point)[1]
        assert x1 == Series(16, {
            6: Poly.const(1),
            7: Poly.const(1),
            9: Poly.const(Fraction(1, 2)),
        })

    def test_partial_point_rejected(self):
        gamma = from_generators([4, 6, 13])
        template = build_template(gamma)
        broken = CoefficientPoint((("a5", Fraction(1)),))
        with pytest.raises(UnboundVariable):
            instantiate(template, broken)

    def test_round_trip_is_normal_form(self):
        rng = random.Random(83)
        for _ in range(30):
            gamma = random_semigroup(rng, max_conductor=60)
            template = build_template(gamma)
            series = instantiate(template, random_point(rng, template))
            assert is_normal_form(series, gamma)


class TestIsNormalForm:
    def test_accepts_known_shape(self):
        gamma = from_generators([2, 5])
        assert is_normal_form(
            (Series(4, {2: Poly.const(1), 3: Poly.const(7)}), Series.zero(4)),
            gamma,
        )

    def test_rejects_wrong_count(self):
        gamma = from_generators([2, 5])
        with pytest.raises(ValueError):
            is_normal_form((Series.term(4, 2, 1),), gamma)

    def test_rejects_nonzero_collapsed_generator(self):
        gamma = from_generators([2, 5])
        bad = (Series.term(4, 2, 1), Series.term(4, 3, 1))
        assert not is_normal_form(bad, gamma)

    def test_rejects_non_monic(self):
        gamma = from_generators([4, 6, 13])
        series = [Series.term(16, v, 1) for v in gamma.generators]
        series[0] = Series.term(16, 4, 2)
        assert not is_normal_form(series, gamma)

    def test_rejects_wrong_order(self):
        gamma = from_generators([4, 6, 13])
        series = [Series.term(16, v, 1) for v in gamma.generators]
        series[1] = Series.term(16, 7, 1)
        assert not is_normal_form(series, gamma)

    def test_rejects_semigroup_supported_tail(self):
        gamma = from_generators([4, 6, 13])
        series = [Series.term(16, v, 1) for v in gamma.generators]
        # 8 lies in the semigroup, so it cannot appear in a tail
        series[0] = Series.term(16, 4, 1) + Series.term(16, 8, 3)
        assert not is_normal_form(series, gamma)

    def test_rejects_tail_at_or_below_order(self):
        gamma = from_generators([4, 6, 13])
        series = [Series.term(16, v, 1) for v in gamma.generators]
        series[1] = Series.term(16, 6, 1) + Series.term(16, 5, 1)
        assert not is_normal_form(series, gamma)

    def test_mixed_moduli_rejected(self):
        gamma = from_generators([2, 5])
        with pytest.raises(ModulusMismatch):
            is_normal_form((Series.term(4, 2, 1), Series.zero(5)), gamma)

    def test_own_modulus_is_used(self):
        """The shape check honors the modulus the series carry, not the
        conductor: mod t^4 a tail at 3 is a gap tail for <2,5>."""
        gamma = from_generators([2, 5])
        shallow = (
            Series(4, {2: Poly.const(1), 3: Poly.const(5)}),
            Series.zero(4),
        )
        assert is_normal_form(shallow, gamma)
