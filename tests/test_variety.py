"""Variety presentations, linear elimination, membership, plane strata."""

import random
from fractions import Fraction

import pytest

from conftest import (
    on_variety_values,
    parse_poly,
    random_fraction,
    random_semigroup,
)
from rgamma import (
    DomainError,
    NotInVariety,
    PresentationMismatch,
    ReductionContext,
    UnboundVariable,
    WrongGeneratorCount,
    build_template,
    defining_equations,
    eliminate_linear,
    from_generators,
    idec_generators_3gen,
    instantiate,
    is_plane_semigroup,
    membership,
    plane_test_3gen,
    predicted_dim_single_binomial,
    verify_point,
)
from rgamma.normalform import integer_generators
from rgamma.symcore import Poly

# the 25 semigroups criterion 7 of the acceptance suite draws (seed 40)
CRITERION_7_SEMIGROUPS = (
    (2, 11), (3, 11), (2, 3), (2, 3), (5, 11), (7, 8, 12, 13), (5, 6, 7),
    (3, 7, 11), (4, 6, 9), (2, 3), (4, 5, 6), (2, 9), (4, 5), (4, 10, 15),
    (2, 11), (5, 7, 9), (3, 4), (5, 8, 11), (6, 7), (7, 10, 12, 15),
    (2, 11), (2, 13), (3, 4), (4, 10, 11), (5, 7, 8),
)
PLANE_TRIPLES = ((4, 6, 13), (4, 6, 17), (4, 10, 21))


class TestPresentation:
    @pytest.mark.parametrize(
        "generators",
        [(4, 6, 13), (8, 9, 10, 11), (10, 11, 12, 13), (10, 13, 14, 17), (11, 15, 17)],
        ids=lambda generators: ",".join(map(str, generators)),
    )
    def test_equations_weighted_homogeneous(self, generators):
        # the torus action t -> lambda*t scales the slot variable for gap
        # delta on the generator of order v by lambda^(delta - v), so the
        # coefficient of t^gap in the reduced image of a degree-d binomial
        # is homogeneous of weight gap - d
        gamma = from_generators(generators)
        presentation = defining_equations(gamma)
        weight = {}
        for i, v in enumerate(gamma.generators):
            for delta in gamma.gaps_above(v):
                weight[presentation.template.variable_name(i, delta)] = delta - v
        assert presentation.equations
        for equation in presentation.equations:
            target = equation.gap - equation.source.degree
            for mono, _ in equation.poly.terms():
                assert sum(weight[name] * e for name, e in mono) == target

    def test_4_6_13(self, pres4613):
        assert pres4613.ambient_dim == 10
        assert len(pres4613.equations) == 1
        equation = pres4613.equations[0]
        assert equation.gap == 15
        assert equation.source.render() == "y^2 - x^3"
        assert equation.poly == parse_poly(
            "5*a5^3 + 3*a5^2*b7 - 2*a5*b7^2 - b7^3 + 3*a5*c15 "
            "- 2*b7*c15 - 3*a7 + 2*b9"
        )

    def test_9_16_19_small_equation(self, pres91619):
        assert pres91619.ambient_dim == 53
        by_source = {e.source.render(): e for e in pres91619.equations}
        small = by_source["z^3 - x*y^3"]
        assert small.gap == 58
        assert small.poly == parse_poly("-a10 - 3*b17 + 3*c20")

    def test_two_generator_semigroups_cut_nothing(self):
        rng = random.Random(107)
        pairs = [(2, 5), (3, 7), (5, 12)]
        while len(pairs) < 10:
            gamma = random_semigroup(rng, max_conductor=100, max_generators=2)
            if len(gamma.generators) == 2:
                pairs.append(gamma.generators)
        for pair in pairs:
            presentation = defining_equations(from_generators(pair))
            assert presentation.equations == ()

    def test_equations_use_template_variables(self):
        rng = random.Random(109)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=30)
            presentation = defining_equations(gamma)
            names = set(presentation.template.variables)
            for equation in presentation.equations:
                assert equation.poly.variables() <= names
                assert equation.gap in gamma.gap_set
                assert not equation.poly.is_zero

    def test_equations_deduplicated(self):
        rng = random.Random(113)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=30)
            presentation = defining_equations(gamma)
            polys = [e.poly for e in presentation.equations]
            assert len(polys) == len(set(polys))

    def test_json_rationals_are_strings(self, pres4613):
        payload = pres4613.to_json_dict()
        assert payload["semigroup"] == [4, 6, 13]
        assert payload["ambient_dim"] == 10
        assert isinstance(payload["equations"][0]["poly"], str)


class TestEliminateLinear:
    def test_4_6_13(self, pres4613):
        result = eliminate_linear(pres4613)
        assert result.residual == ()
        assert result.affine_dim == 9
        assert len(result.solved) == 1
        solved = result.solved[0]
        assert solved.name == "b9"
        assert solved.factor == Fraction(-1, 2)
        assert solved.expression == parse_poly(
            "-5/2*a5^3 - 3/2*a5^2*b7 + a5*b7^2 + 1/2*b7^3 - 3/2*a5*c15 "
            "+ b7*c15 + 3/2*a7"
        )
        assert solved.gap == 15

    def test_9_16_19(self, pres91619):
        result = eliminate_linear(pres91619)
        assert result.residual == ()
        assert result.affine_dim == 51
        assert [(s.name, str(s.factor)) for s in result.solved] == [
            ("c23", "-1/2"),
            ("c20", "-1/3"),
        ]

    def test_solved_are_substituted_out(self):
        rng = random.Random(127)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=35)
            presentation = defining_equations(gamma)
            result = eliminate_linear(presentation)
            solved_names = {s.name for s in result.solved}
            for s in result.solved:
                assert not s.expression.variables() & solved_names
            for equation in result.residual:
                assert not equation.poly.variables() & solved_names

    def test_affine_dim_bookkeeping(self):
        rng = random.Random(131)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=35)
            presentation = defining_equations(gamma)
            result = eliminate_linear(presentation)
            if result.residual:
                assert result.affine_dim is None
            else:
                assert result.affine_dim == presentation.ambient_dim - len(result.solved)

    def test_explicit_orders_validated(self, pres4613):
        with pytest.raises(ValueError):
            eliminate_linear(pres4613, variable_order=("a5",))
        with pytest.raises(ValueError):
            eliminate_linear(pres4613, equation_order=(3, 1))

    def test_scan_order_does_not_change_dimension(self):
        rng = random.Random(137)
        for _ in range(8):
            gamma = random_semigroup(rng, max_conductor=35)
            presentation = defining_equations(gamma)
            baseline = eliminate_linear(presentation).affine_dim
            for _ in range(4):
                variables = list(presentation.template.variables)
                order = list(range(len(presentation.equations)))
                rng.shuffle(variables)
                rng.shuffle(order)
                shuffled = eliminate_linear(
                    presentation, variable_order=variables, equation_order=order
                )
                assert shuffled.affine_dim == baseline

    def test_solution_satisfies_original_equations(self):
        rng = random.Random(139)
        for _ in range(10):
            gamma = random_semigroup(rng, max_conductor=35)
            presentation = defining_equations(gamma)
            result = eliminate_linear(presentation)
            if result.residual:
                continue
            values = on_variety_values(rng, presentation, result)
            assert membership(gamma, values, presentation).in_variety


class TestPredictedDimension:
    def test_known_values(self, g4613):
        assert predicted_dim_single_binomial(g4613) == 9
        assert predicted_dim_single_binomial(from_generators([3, 5])) is None
        assert predicted_dim_single_binomial(from_generators([9, 16, 19])) is None

    def test_formula(self, g4613, pres4613):
        binomial = pres4613.binomials[0]
        expected = g4613.ambient_dimension() - len(g4613.gaps_above(binomial.degree))
        assert predicted_dim_single_binomial(g4613) == expected


class TestMembership:
    def test_zero_point_is_on_variety(self, g4613, pres4613):
        report = membership(g4613, pres4613.template.zero_point(), pres4613)
        assert report.in_variety
        assert report.violations == ()

    def test_known_violation(self, g4613, pres4613):
        point = pres4613.template.point({"b7": 1}, fill_missing=True)
        report = membership(g4613, point, pres4613)
        assert not report.in_variety
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.equation.gap == 15
        assert violation.value == -1
        assert violation.equation.tag() == "equation(gap 15)"

    def test_known_solution(self, g4613, pres4613):
        point = {"b7": 1, "b9": Fraction(1, 2)}
        total = pres4613.template.point(point, fill_missing=True)
        assert membership(g4613, total, pres4613).in_variety

    def test_mapping_must_be_total(self, g4613, pres4613):
        with pytest.raises(UnboundVariable):
            membership(g4613, {"b7": 1}, pres4613)

    def test_json_shape(self, g4613, pres4613):
        point = pres4613.template.point({"b7": 1}, fill_missing=True)
        payload = membership(g4613, point, pres4613).to_json_dict()
        assert payload == {
            "in_variety": False,
            "violated": [{"gap": 15, "value": "-1"}],
        }


def cross_check_points(rng, presentation):
    """Points on and off the variety, the zero point, negative values and
    fractions over one shared denominator and over coprime ones."""
    template = presentation.template
    names = template.variables
    result = eliminate_linear(presentation)
    on = [on_variety_values(rng, presentation, result) for _ in range(2)]
    off = dict(on[1])
    if result.solved:
        off[rng.choice(result.solved).name] += rng.randint(1, 5)
    yield template.zero_point()
    for values in (on[0], on[1], off):
        yield template.point(values)
    yield template.point({n: Fraction(-rng.randint(1, 9)) for n in names})
    yield template.point({n: Fraction(rng.randint(-9, 9), 6) for n in names})
    yield template.point(
        {n: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for n in names}
    )


class TestMembershipMatchesEquations:
    """membership reduces at the point instead of evaluating the symbolic
    equations; every equation's polynomial must still give its value."""

    @pytest.mark.parametrize(
        "generators",
        sorted(set(CRITERION_7_SEMIGROUPS))
        + list(PLANE_TRIPLES)
        + [(11, 13, 17), (4, 6, 15, 17), (7, 8, 9, 20)],
        ids=lambda generators: ",".join(map(str, generators)),
    )
    def test_values_equal_polynomial_evaluation(self, generators):
        gamma = from_generators(generators)
        presentation = defining_equations(gamma)
        rng = random.Random(sum(generators))
        for point in cross_check_points(rng, presentation):
            values = point.as_dict()
            expected = []
            for equation in presentation.equations:
                value = equation.poly.evaluate(values)
                if value:
                    expected.append((equation, value, type(value)))
            report = membership(gamma, point, presentation)
            got = [(v.equation, v.value, type(v.value)) for v in report.violations]
            assert got == expected, (generators, str(point))
            assert report.in_variety == (not expected)

    def test_generator_past_the_conductor(self):
        # 15 and 17 lie past the conductor 14: their template series is zero
        gamma = from_generators([4, 6, 15, 17])
        assert gamma.conductor == 14
        presentation = defining_equations(gamma)
        assert presentation.equations
        point = presentation.template.point({"b7": 1}, fill_missing=True)
        assert not membership(gamma, point, presentation).in_variety


def grid_point(pres, result, a5, b7):
    values = {name: Fraction(0) for name in pres.template.variables}
    values["a5"] = Fraction(a5)
    values["b7"] = Fraction(b7)
    for s in result.solved:
        values[s.name] = s.expression.evaluate(values)
    return pres.template.point(values)


def series_plane_test(gamma, point, presentation):
    """The plane test on symbolic-path Series: the reference for
    plane_test_3gen, from (is_plane_point, reduced_order, leading_coefficient)."""
    vs = gamma.generators
    ks = idec_generators_3gen(gamma).ks
    ctx = ReductionContext(gamma, instantiate(presentation.template, point))
    x, y = ctx.names[:2]
    binomial = Poly.monomial({y: ks[1]}) - Poly.monomial({x: ks[0]})
    reduced = ctx.reduce(ctx.phi(binomial), (0, 1)).reduced
    order = reduced.order()
    lead = Fraction(0)
    if order == vs[2]:
        lead = reduced.coefficient(order).constant_value()
    plane = is_plane_semigroup(gamma).is_plane and order == vs[2]
    return plane, order, lead


class TestPlaneStratumReference:
    def check(self, gamma, point, presentation):
        report = plane_test_3gen(gamma, point, presentation)
        plane, order, lead = series_plane_test(gamma, point, presentation)
        assert (report.is_plane_point, report.reduced_order) == (plane, order)
        assert report.leading_coefficient == lead
        assert type(report.leading_coefficient) is type(lead)

    def test_4_6_13_grid(self, g4613, pres4613):
        result = eliminate_linear(pres4613)
        for a5 in (-2, -1, 0, 1, 2):
            for b7 in (0, 1, 2, 3):
                point = grid_point(pres4613, result, a5, b7)
                self.check(g4613, point, pres4613)

    @pytest.mark.parametrize(
        "generators", PLANE_TRIPLES, ids=lambda generators: ",".join(map(str, generators))
    )
    def test_random_variety_points(self, generators):
        gamma = from_generators(generators)
        presentation = defining_equations(gamma)
        result = eliminate_linear(presentation)
        rng = random.Random(sum(generators))
        for _ in range(15):
            values = on_variety_values(rng, presentation, result)
            self.check(gamma, presentation.template.point(values), presentation)
            values[rng.choice(result.solved).name] += rng.randint(1, 5)
            with pytest.raises(NotInVariety):
                plane_test_3gen(gamma, presentation.template.point(values), presentation)


class TestPlaneStratum:
    def test_plane_and_nonplane_points(self, g4613, pres4613):
        result = eliminate_linear(pres4613)
        plane = plane_test_3gen(g4613, grid_point(pres4613, result, 0, 1), pres4613)
        assert plane.is_plane_point
        assert plane.reduced_order == 13
        assert plane.leading_coefficient == 2
        assert plane.criterion_is_plane

        degenerate = plane_test_3gen(
            g4613, grid_point(pres4613, result, 2, 3), pres4613
        )
        assert not degenerate.is_plane_point
        assert degenerate.reduced_order != 13

    def test_stratum_inequality_on_grid(self, g4613, pres4613):
        result = eliminate_linear(pres4613)
        for a5 in (-2, -1, 0, 1, 2):
            for b7 in (0, 1, 2, 3):
                point = grid_point(pres4613, result, a5, b7)
                report = plane_test_3gen(g4613, point, pres4613)
                assert report.is_plane_point == (2 * b7 - 3 * a5 != 0)

    def test_requires_point_on_variety(self, g4613, pres4613):
        bad = pres4613.template.point({"b7": 1}, fill_missing=True)
        with pytest.raises(NotInVariety, match="gap 15"):
            plane_test_3gen(g4613, bad, pres4613)

    def test_requires_three_generators(self):
        gamma = from_generators([8, 9, 10, 11])
        template_point = {}
        with pytest.raises(WrongGeneratorCount):
            plane_test_3gen(gamma, template_point)

    def test_presentation_of_another_semigroup_rejected(self):
        """A <4,6,17> point checked as <4,6,13> with <4,6,17>'s presentation
        mixed one semigroup's v_2 and relation ideal with the other's
        reduction and read is_plane_point False, leading coefficient 0."""
        gamma = from_generators([4, 6, 17])
        presentation = defining_equations(gamma)
        point = grid_point(presentation, eliminate_linear(presentation), 1, 0)
        report = plane_test_3gen(gamma, point, presentation)
        assert report.is_plane_point
        assert report.leading_coefficient == Fraction(-111, 64)
        assert issubclass(PresentationMismatch, DomainError)
        other = from_generators([4, 6, 13])
        with pytest.raises(PresentationMismatch):
            plane_test_3gen(other, point, presentation)
        with pytest.raises(PresentationMismatch):
            membership(other, point, presentation)
        # an equal semigroup built separately is the same semigroup
        assert membership(from_generators([4, 6, 17]), point, presentation).in_variety

    def test_criterion_failure_blocks_plane_points(self):
        gamma = from_generators([4, 6, 11])
        presentation = defining_equations(gamma)
        report = plane_test_3gen(
            gamma, presentation.template.zero_point(), presentation
        )
        assert not report.criterion_is_plane
        assert not report.is_plane_point

    def test_json_shape(self, g4613, pres4613):
        result = eliminate_linear(pres4613)
        payload = plane_test_3gen(
            g4613, grid_point(pres4613, result, 0, 1), pres4613
        ).to_json_dict()
        assert payload == {
            "is_plane_point": True,
            "reduced_order": 13,
            "leading_coefficient": "2",
            "criterion_is_plane": True,
        }


def test_point_path_builds_no_poly(monkeypatch, g4613, pres4613):
    """Work at an explicit point reads the template's slot values into
    integer rows; with Poly construction disabled it still gives every
    verdict, also on <13,17,19,23>, whose symbolic equations do not fit in
    memory."""

    def no_poly(*args):
        raise AssertionError("a Poly was built at a point")

    monkeypatch.setattr(Poly, "__init__", no_poly)
    monkeypatch.setattr(Poly, "_make", classmethod(no_poly))
    template = build_template(g4613)
    on = template.point({"b7": 1, "b9": Fraction(1, 2)}, fill_missing=True)
    off = template.point({"b7": 1}, fill_missing=True)
    assert integer_generators(template, on)[0] == 2
    assert verify_point(g4613, on)
    assert not verify_point(g4613, off)
    assert membership(g4613, on, pres4613).in_variety
    assert not membership(g4613, off, pres4613).in_variety
    assert plane_test_3gen(g4613, on, pres4613).is_plane_point
    assert "generators" not in vars(template)

    gamma = from_generators([13, 17, 19, 23])
    big = build_template(gamma)
    assert len(big.variables) == 74
    assert verify_point(gamma, big.zero_point())
