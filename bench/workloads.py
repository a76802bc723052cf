"""The three benchmark workloads: swell, survey and points.

Each workload builds its corpus in set-up from the run's seed, runs one
operation per corpus item, and checks every result.  ``run`` calls the
library's public entry points as a user would; ``run_traced`` makes the
same calls one layer at a time, each inside a tracer span, so the traced
pass can split an operation's time by layer.  Both must give the same
``summary`` for every item, which the runner checks by digest.

``lib`` is a namespace holding the modules rgamma.semigroup, .normalform,
.deceptive, .reduction, .variety, .oracle and .cli.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction


def poly_terms(poly) -> int:
    return sum(1 for _ in poly.terms())


def series_terms(series) -> int:
    return sum(poly_terms(poly) for _, poly in series.items())


def rendered_terms(text: str) -> int:
    """Term count of a rendered polynomial: terms are joined by ' + ' or
    ' - ' and no coefficient or monomial contains a space."""
    return 1 + text.count(" + ") + text.count(" - ")


def traced_presentation(lib, gamma, tr):
    """The calls defining_equations makes, one span each.  The
    variety.defining_equations spans cover its own work: collecting the
    distinct surviving gap coefficients of each reduced binomial."""
    template = tr.call("normalform.build_template", lib.normalform.build_template, gamma)
    tr.count("normalform.variables", len(template.variables))
    binomials = tr.call(
        "deceptive.enumerate_sdec_below_conductor",
        lib.deceptive.enumerate_sdec_below_conductor, gamma,
    )
    tr.count("deceptive.binomials", len(binomials))
    names = lib.deceptive.generator_variable_names(len(gamma.generators))
    ctx = tr.call(
        "reduction.ReductionContext",
        lib.reduction.ReductionContext, gamma, template.generators, names,
    )

    equations: list = []
    seen: set = set()

    def collect(binomial, trace):
        for gap, poly in trace.reduced.items():
            if poly not in seen:
                seen.add(poly)
                equations.append(lib.variety.Equation(poly, binomial, gap))

    for binomial in binomials:
        image = tr.call("reduction.phi", ctx.phi, binomial.as_poly(names))
        trace = tr.call("reduction.reduce", ctx.reduce, image)
        tr.count("reduction.steps", len(trace.steps))
        tr.count("reduction.phi_terms", series_terms(image))
        tr.count("reduction.reduced_terms", series_terms(trace.reduced))
        tr.call("variety.defining_equations", collect, binomial, trace)

    presentation = lib.variety.VarietyPresentation(
        semigroup=gamma,
        template=template,
        binomials=binomials,
        equations=tuple(equations),
        ambient_dim=gamma.ambient_dimension(),
    )
    tr.count("variety.equations", len(equations))
    for equation in equations:
        tr.count("variety.equation_terms", poly_terms(equation.poly))
        tr.maximum("variety.max_degree", equation.poly.total_degree())
    return presentation


def traced_elimination(lib, presentation, tr):
    result = tr.call("variety.eliminate_linear", lib.variety.eliminate_linear, presentation)
    tr.count("variety.residual", len(result.residual))
    tr.count("variety.solved_terms", sum(poly_terms(s.expression) for s in result.solved))
    return result


# -- swell ----------------------------------------------------------------

SWELL_CASES = ("9,16,19", "10,11,12,13", "10,13,14,17", "11,15,17", "12,14,17", "11,13,17")

# equation count and total equation terms, from the acceptance baseline
SWELL_FACTS = {"11,13,17": (5, 11096)}


def _render_equations(lib, presentation, result, out) -> None:
    # what cli.cmd_equations renders (the JSON payload and the text lines,
    # both built whatever the format) and what cli.main prints for JSON
    payload = {**presentation.to_json_dict(), "elimination": result.to_json_dict()}
    lib.cli._equation_lines(presentation, result)
    print(json.dumps(payload, indent=2), file=out)


class Swell:
    name = "swell"
    op_budget_s = 60.0

    def build(self, lib, rng):
        cases = list(SWELL_CASES)
        rng.shuffle(cases)
        return cases

    def key(self, case):
        return case

    def run(self, lib, case):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["equations", case, "--format", "json"])
        return code, out.getvalue()

    def run_traced(self, lib, case, tr):
        argv = ["equations", case, "--format", "json"]
        tr.call("cli.parse_args", lambda: lib.cli.build_parser().parse_args(argv))
        gamma = tr.call(
            "semigroup.from_generators",
            lib.semigroup.from_generators, [int(v) for v in case.split(",")],
        )
        tr.count("semigroup.calls", 1)
        presentation = traced_presentation(lib, gamma, tr)
        result = traced_elimination(lib, presentation, tr)
        out = io.StringIO()
        tr.call("cli.render", _render_equations, lib, presentation, result, out)
        text = out.getvalue()
        tr.count("cli.bytes", len(text.encode()))
        return 0, text

    def summary(self, result):
        code, text = result
        return [code, hashlib.sha256(text.encode()).hexdigest()]

    def check(self, case, result, reference):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        if self.summary(result)[1] != reference["swell_sha256"][case]:
            return "JSON output differs from the pinned sha256"
        if case in SWELL_FACTS:
            equations = json.loads(text)["equations"]
            found = (len(equations), sum(rendered_terms(e["poly"]) for e in equations))
            if found != SWELL_FACTS[case]:
                return f"(equations, terms) = {found}, expected {SWELL_FACTS[case]}"
        return None

    def check_pass(self, summaries):
        if sorted(summaries) != sorted(SWELL_CASES):
            return ["the pass did not cover every case"]
        return []


# -- survey ---------------------------------------------------------------

SURVEY_MAX_CONDUCTOR = 50
SURVEY_TRIPLES = 768
SURVEY_SINGLES = 129


def three_gen_semigroups(max_conductor: int) -> list[tuple[int, int, int]]:
    """Ascending generator triples of every semigroup with exactly three
    minimal generators and conductor at most max_conductor (an additive
    sieve, independent of the library)."""
    triples = []
    for v0 in range(3, max_conductor):
        bound = max_conductor + v0
        for v1 in range(v0 + 1, bound):
            if v1 % v0 == 0:
                continue
            pair = bytearray(bound)
            pair[0] = 1
            for n in range(1, bound):
                if (n >= v0 and pair[n - v0]) or (n >= v1 and pair[n - v1]):
                    pair[n] = 1
            for v2 in range(v1 + 1, bound):
                if pair[v2] or math.gcd(math.gcd(v0, v1), v2) != 1:
                    continue
                member = bytearray(pair)
                for n in range(v2, bound):
                    if member[n - v2]:
                        member[n] = 1
                if all(member[max_conductor:]):
                    triples.append((v0, v1, v2))
    return triples


class Survey:
    name = "survey"
    op_budget_s = 10.0

    def build(self, lib, rng):
        triples = three_gen_semigroups(SURVEY_MAX_CONDUCTOR)
        rng.shuffle(triples)
        return triples

    def key(self, triple):
        return ",".join(map(str, triple))

    def run(self, lib, triple):
        gamma = lib.semigroup.from_generators(triple)
        template = lib.normalform.build_template(gamma)
        binomials = lib.deceptive.enumerate_sdec_below_conductor(gamma)
        if len(binomials) != 1:
            return len(template.variables), len(binomials), None, None
        presentation = lib.variety.defining_equations(gamma)
        result = lib.variety.eliminate_linear(presentation)
        predicted = lib.variety.predicted_dim_single_binomial(gamma)
        return len(template.variables), 1, result.affine_dim, predicted

    def run_traced(self, lib, triple, tr):
        gamma = tr.call("semigroup.from_generators", lib.semigroup.from_generators, triple)
        tr.count("semigroup.calls", 1)
        template = tr.call("normalform.build_template", lib.normalform.build_template, gamma)
        tr.count("normalform.variables", len(template.variables))
        binomials = tr.call(
            "deceptive.enumerate_sdec_below_conductor",
            lib.deceptive.enumerate_sdec_below_conductor, gamma,
        )
        tr.count("deceptive.binomials", len(binomials))
        if len(binomials) != 1:
            return len(template.variables), len(binomials), None, None
        presentation = traced_presentation(lib, gamma, tr)
        result = traced_elimination(lib, presentation, tr)
        predicted = tr.call(
            "variety.predicted_dim_single_binomial",
            lib.variety.predicted_dim_single_binomial, gamma,
        )
        return len(template.variables), 1, result.affine_dim, predicted

    def summary(self, result):
        return list(result)

    def check(self, triple, result, reference):
        _, count, dim, predicted = result
        if count == 1 and (dim is None or dim != predicted):
            return f"affine dimension {dim}, single-binomial formula {predicted}"
        if triple == (4, 6, 13) and dim != 9:
            return f"<4,6,13> has affine dimension {dim}, expected 9"
        return None

    def check_pass(self, summaries):
        problems = []
        if len(summaries) != SURVEY_TRIPLES:
            problems.append(f"{len(summaries)} triples, expected {SURVEY_TRIPLES}")
        singles = sum(1 for s in summaries.values() if s[1] == 1)
        if singles != SURVEY_SINGLES:
            problems.append(f"{singles} single-binomial triples, expected {SURVEY_SINGLES}")
        return problems


# -- points ---------------------------------------------------------------

# the 25 semigroups criterion 7 of the acceptance suite draws (seed 40,
# conductor at most 40, 2 to 4 generators); that draw is known to finish
CRITERION_7_SEMIGROUPS = (
    (2, 11), (3, 11), (2, 3), (2, 3), (5, 11), (7, 8, 12, 13), (5, 6, 7),
    (3, 7, 11), (4, 6, 9), (2, 3), (4, 5, 6), (2, 9), (4, 5), (4, 10, 15),
    (2, 11), (5, 7, 9), (3, 4), (5, 8, 11), (6, 7), (7, 10, 12, 15),
    (2, 11), (2, 13), (3, 4), (4, 10, 11), (5, 7, 8),
)
PLANE_TRIPLES = ((4, 6, 13), (4, 6, 17), (4, 10, 21))
LARGE_SEMIGROUP = (11, 13, 17)
# 506 points: the tail (98th percentile, 10 points beyond it) falls in the
# middle of the 20 points of <11,13,17>, not at the edge of a cluster
POINT_COUNTS = {"criterion 7": 18, "plane": 12, "large": 20}


def random_fraction(rng, span=6):
    """Small rational, biased toward integers; zero included."""
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 1, 2, 3)))


def on_variety_values(rng, presentation, elimination):
    """Free variables random, eliminated variables back-substituted."""
    solved = {s.name for s in elimination.solved}
    values = {
        name: random_fraction(rng)
        for name in presentation.template.variables
        if name not in solved
    }
    for s in elimination.solved:
        values[s.name] = s.expression.evaluate(values)
    return values


@dataclass(frozen=True)
class PointCase:
    index: int
    gamma: object
    presentation: object
    point: object
    on_variety: bool
    plane: bool


class Points:
    name = "points"
    op_budget_s = 10.0

    def build(self, lib, rng):
        plan = [(g, POINT_COUNTS["criterion 7"]) for g in CRITERION_7_SEMIGROUPS]
        plan += [(g, POINT_COUNTS["plane"]) for g in PLANE_TRIPLES]
        plan.append((LARGE_SEMIGROUP, POINT_COUNTS["large"]))
        cases = []
        for generators, count in plan:
            gamma = lib.semigroup.from_generators(generators)
            presentation = lib.variety.defining_equations(gamma)
            elimination = lib.variety.eliminate_linear(presentation)
            if elimination.residual:
                raise RuntimeError(f"{gamma} is not exhibited as an affine space")
            for k in range(count):
                values = on_variety_values(rng, presentation, elimination)
                on_variety = True
                if k % 2 and elimination.solved:
                    # pushed off the variety: one solved variable no longer
                    # equals its expression in the free variables
                    values[rng.choice(elimination.solved).name] += rng.randint(1, 5)
                    on_variety = False
                cases.append(PointCase(
                    len(cases), gamma, presentation,
                    presentation.template.point(values),
                    on_variety, on_variety and generators in PLANE_TRIPLES,
                ))
        return cases

    def key(self, case):
        return str(case.index)

    def run(self, lib, case):
        member = lib.variety.membership(case.gamma, case.point, case.presentation)
        oracle = lib.oracle.verify_point(case.gamma, case.point)
        plane = None
        if case.plane:
            plane = lib.variety.plane_test_3gen(case.gamma, case.point, case.presentation)
        return member.in_variety, oracle, plane

    def run_traced(self, lib, case, tr):
        member = tr.call(
            "variety.membership",
            lib.variety.membership, case.gamma, case.point, case.presentation,
        )
        oracle = tr.call("oracle.verify_point", lib.oracle.verify_point, case.gamma, case.point)
        tr.count("oracle.calls", 1)
        plane = None
        if case.plane:
            plane = tr.call(
                "variety.plane_test_3gen",
                lib.variety.plane_test_3gen, case.gamma, case.point, case.presentation,
            )
        return member.in_variety, oracle, plane

    def summary(self, result):
        member, oracle, plane = result
        return [member, oracle, None if plane is None else plane.is_plane_point]

    def check(self, case, result, reference):
        member, oracle, plane = result
        if not member == oracle == case.on_variety:
            return (
                f"membership {member}, oracle {oracle}, "
                f"built {'on' if case.on_variety else 'off'} the variety"
            )
        if plane is not None:
            if not plane.criterion_is_plane:
                return "plane triple fails the plane criterion"
            if case.gamma.generators == (4, 6, 13):
                expected = 2 * case.point["b7"] - 3 * case.point["a5"] != 0
                if plane.is_plane_point != expected:
                    return f"plane verdict {plane.is_plane_point}, 2*b7 - 3*a5 != 0 is {expected}"
        return None

    def check_pass(self, summaries):
        return []


WORKLOADS = {w.name: w for w in (Swell(), Survey(), Points())}
