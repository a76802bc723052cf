"""Command line front end.

Subcommands:

    semigroup GENS          conductor, gaps, dimensions, plane criterion
    template GENS           symbolic normal-form generators
    sdec GENS               deceptive binomials below the conductor
    equations GENS          defining equations and linear elimination
    reduce GENS --series    reduction trace of a series (--point, --subset)
    analyze GENS            everything above plus elimination self-checks
    check GENS --point      membership of a coefficient point (--oracle)
    plane GENS [--point]    plane criterion / plane stratum test
    normalize --series --mod   canonical normal form of explicit series

Exit codes: 0 success, 1 negative verdict or domain error, 2 usage error.
Output is plain text by default, a single JSON document with --format json;
both are deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .deceptive import enumerate_sdec_below_conductor, generator_variable_names
from .errors import DomainError, WrongGeneratorCount
from .normalform import CoefficientPoint, NormalFormTemplate, build_template, instantiate
from .oracle import canonical_normal_form, subalgebra_closure_semigroup, verify_point
from .reduction import ReductionContext
from .semigroup import NumericalSemigroup, PlaneCriterionReport, is_plane_semigroup
from .symcore import Poly, Series
from .variety import (
    defining_equations,
    eliminate_linear,
    membership,
    plane_test_3gen,
    predicted_dim_single_binomial,
)


class UsageError(Exception):
    """Malformed command line input (exit code 2)."""


# -- input parsing ------------------------------------------------------

def parse_generators(text: str) -> NumericalSemigroup:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"generators must be a comma-separated integer list: {text!r}")
    if not values:
        raise UsageError("no generators given")
    return NumericalSemigroup.from_generators(values)


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*?)?(t(?:\^(\d+))?)?$")


def parse_series(text: str, modulus: int) -> Series:
    """Parse sums of c*t^k terms ('2*t^13 - 1/2*t^14 + t^15')."""
    compact = text.replace(" ", "")
    if not compact:
        raise UsageError("empty series expression")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    sign = 1
    if compact[0] in "+-":
        sign = -1 if compact[0] == "-" else 1
        pos = 1
    while pos < len(compact):
        end = pos
        while end < len(compact) and compact[end] not in "+-":
            end += 1
        body = compact[pos:end]
        match = _TERM.match(body)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise UsageError(f"cannot parse series term {body!r}")
        coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        if match.group(2) is None:
            exp = 0
        else:
            exp = int(match.group(3)) if match.group(3) else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        if end < len(compact):
            sign = -1 if compact[end] == "-" else 1
        pos = end + 1
    return Series(modulus, {e: Poly.const(q) for e, q in coeffs.items()})


def parse_point(text: Optional[str]) -> dict[str, Fraction]:
    if not text:
        return {}
    assignment: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"point entries must look like name=value: {piece!r}")
        name, _, value = piece.partition("=")
        try:
            assignment[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad rational value in {piece!r}")
    return assignment


def parse_indices(text: str, count: int) -> tuple[int, ...]:
    """Generator indices, each in range(count), at least one."""
    try:
        indices = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise UsageError(f"indices must be a comma-separated integer list: {text!r}")
    if not indices or not all(0 <= i < count for i in indices):
        raise UsageError(f"indices must name generators among 0..{count - 1}: {text!r}")
    return indices


# -- shared rendering ---------------------------------------------------

def _plane_report(plane: PlaneCriterionReport) -> tuple[dict, str]:
    verdict = "satisfied" if plane.is_plane else "not satisfied"
    line = (
        f"plane criterion: {verdict} "
        f"(e-sequence {', '.join(map(str, plane.e_sequence))})"
    )
    # JSON renders the report's tuples as lists, in field order
    return dataclasses.asdict(plane), line


def _semigroup_report(gamma: NumericalSemigroup) -> tuple[dict, list[str]]:
    plane, plane_line = _plane_report(is_plane_semigroup(gamma))
    payload = {
        "generators": list(gamma.generators),
        "conductor": gamma.conductor,
        "gaps": list(gamma.gaps),
        "elements_below_conductor": list(gamma.elements_below_conductor),
        "ambient_dim": gamma.ambient_dimension(),
        "plane_criterion": plane,
    }
    lines = [
        f"semigroup {gamma}",
        f"  minimal generators: {', '.join(map(str, gamma.generators))}",
        f"  conductor: {gamma.conductor}",
        f"  gaps ({len(gamma.gaps)}): {', '.join(map(str, gamma.gaps)) or '-'}",
        "  elements below conductor "
        f"({len(gamma.elements_below_conductor)}): "
        f"{', '.join(map(str, gamma.elements_below_conductor)) or '-'}",
        f"  ambient dimension: {gamma.ambient_dimension()}",
        f"  {plane_line}",
    ]
    return payload, lines


def _template_lines(template: NormalFormTemplate) -> list[str]:
    names = generator_variable_names(len(template.generators))
    lines = [
        f"{name}(t) = {series}"
        for name, series in zip(names, template.generators)
    ]
    shown = " ".join(template.variables) if template.variables else "(none)"
    lines.append(f"variables ({len(template.variables)}): {shown}")
    return lines


def _point_json(point: CoefficientPoint) -> dict:
    return {name: str(value) for name, value in point.values}


# -- subcommands --------------------------------------------------------

def cmd_semigroup(args) -> tuple[int, dict, list[str]]:
    return 0, *_semigroup_report(parse_generators(args.generators))


def cmd_template(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    template = build_template(gamma)
    payload = {"semigroup": list(gamma.generators), **template.to_json_dict()}
    return 0, payload, _template_lines(template)


def cmd_sdec(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    binomials = enumerate_sdec_below_conductor(gamma)
    payload = {
        "semigroup": list(gamma.generators),
        "binomials": [b.to_json_dict() for b in binomials],
    }
    lines = [f"deceptive binomials below conductor ({len(binomials)}):"]
    for b in binomials:
        lines.append(f"  [degree {b.degree}] {b.render()}")
    if not binomials:
        lines.append("  (none)")
    return 0, payload, lines


def _equation_lines(presentation, result) -> list[str]:
    lines = [f"equations ({len(presentation.equations)}):"]
    for eq in presentation.equations:
        lines.append(f"  [gap {eq.gap} | {eq.source.render()}] {eq.poly}")
    if not presentation.equations:
        lines.append("  (none)")
    if result.solved:
        solved = ", ".join(f"{s.name} (factor {s.factor})" for s in result.solved)
        lines.append(f"elimination solved {len(result.solved)} variable(s): {solved}")
    else:
        lines.append("elimination solved no variables")
    if result.residual:
        lines.append(f"residual equations: {len(result.residual)}")
        lines.append("affine dimension: undetermined")
    else:
        lines.append(f"affine dimension: {result.affine_dim}")
    return lines


def cmd_equations(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    presentation = defining_equations(gamma)
    result = eliminate_linear(presentation)
    payload = {
        **presentation.to_json_dict(),
        "elimination": result.to_json_dict(),
    }
    return 0, payload, _equation_lines(presentation, result)


def cmd_reduce(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    template = build_template(gamma)
    point = template.point(parse_point(args.point), fill_missing=True)
    generators = instantiate(template, point)
    series = parse_series(args.series, template.modulus)
    subset = parse_indices(args.subset, len(gamma.generators)) if args.subset else None

    ctx = ReductionContext(gamma, generators)
    trace = ctx.reduce(series, subset)

    payload = {
        "semigroup": list(gamma.generators),
        "input": str(series),
        "point": _point_json(point),
        "subset": list(subset) if subset else None,
        "trace": trace.to_json_dict(),
    }
    lines = [f"input: {series}"]
    for step in trace.steps:
        lines.append(
            f"step: power {step.power}, multiplier {step.multiplier}, "
            f"factorization {step.factorization}"
        )
    lines.append(f"reduced: {trace.reduced}")
    lines.append(f"witness: {trace.witness}")
    return 0, payload, lines


def cmd_check(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    presentation = defining_equations(gamma)
    point = presentation.template.point(parse_point(args.point), fill_missing=True)
    report = membership(gamma, point, presentation)

    payload = {
        "semigroup": list(gamma.generators),
        "point": _point_json(point),
        **report.to_json_dict(),
    }
    if report.in_variety:
        lines = [f"in R_Γ ({len(presentation.equations)} equation(s) satisfied)"]
        code = 0
    else:
        tags = ", ".join(v.equation.tag() for v in report.violations)
        lines = [f"NOT in R_Γ; violated: {tags}"]
        code = 1

    if args.oracle:
        oracle_verdict = verify_point(gamma, point)
        agrees = oracle_verdict == report.in_variety
        payload["oracle"] = {"in_variety": oracle_verdict, "agrees": agrees}
        lines.append(
            "oracle: closure semigroup "
            + ("matches" if oracle_verdict else "differs")
        )
        if not agrees:
            lines.append("ORACLE DISAGREEMENT: symbolic and brute-force verdicts differ")
            code = 1
    return code, payload, lines


def cmd_plane(args) -> tuple[int, dict, list[str]]:
    gamma = parse_generators(args.generators)
    criterion = is_plane_semigroup(gamma)
    report, line = _plane_report(criterion)
    payload = {"semigroup": list(gamma.generators), "criterion": report}
    lines = [line]
    if criterion.condition_ii_failures:
        failed = ", ".join(map(str, criterion.condition_ii_failures))
        lines.append(f"  spacing condition fails at generator index {failed}")
    code = 0 if criterion.is_plane else 1

    if args.point is not None:
        if len(gamma.generators) != 3:  # fail before building the presentation
            raise WrongGeneratorCount(
                f"the plane stratum test needs 3 generators, got {len(gamma.generators)}"
            )
        presentation = defining_equations(gamma)
        point = presentation.template.point(parse_point(args.point), fill_missing=True)
        report = plane_test_3gen(gamma, point, presentation)
        payload["point_test"] = report.to_json_dict()
        if report.is_plane_point:
            lines.append(
                "point test: plane "
                f"(order {report.reduced_order}, leading coefficient "
                f"{report.leading_coefficient})"
            )
        else:
            lines.append(
                f"point test: not plane (reduced order {report.reduced_order})"
            )
        code = 0 if report.is_plane_point else 1
    return code, payload, lines


def cmd_normalize(args) -> tuple[int, dict, list[str]]:
    if args.mod < 1:
        raise UsageError("--mod must be a positive integer")
    exprs = [piece for piece in args.series.split(";") if piece.strip()]
    if not exprs:
        raise UsageError("no series given")
    series = [parse_series(piece, args.mod) for piece in exprs]
    detected, normal = canonical_normal_form(series)
    closure = sorted(subalgebra_closure_semigroup(series)) if any(
        not s.is_zero for s in series
    ) else []

    names = generator_variable_names(len(detected.generators))
    payload = {
        "modulus": args.mod,
        "detected_generators": list(detected.generators),
        "conductor": detected.conductor,
        "closure_below_modulus": closure,
        "normal_form": [str(s) for s in normal],
    }
    lines = [
        f"detected semigroup: {detected} (conductor {detected.conductor})",
        f"closure below t^{args.mod}: {', '.join(map(str, closure)) or '-'}",
    ]
    for name, s in zip(names, normal):
        lines.append(f"{name}(t) = {s}")
    return 0, payload, lines


def cmd_analyze(args) -> tuple[int, dict, list[str]]:
    if args.shuffles < 0:
        raise UsageError("--shuffles must be a nonnegative integer")
    gamma = parse_generators(args.generators)
    presentation = defining_equations(gamma)
    result = eliminate_linear(presentation)
    predicted = predicted_dim_single_binomial(gamma)

    rng = random.Random(args.seed)
    dims = [result.affine_dim]
    for _ in range(args.shuffles):
        variables = list(presentation.template.variables)
        order = list(range(len(presentation.equations)))
        rng.shuffle(variables)
        rng.shuffle(order)
        shuffled = eliminate_linear(
            presentation, variable_order=variables, equation_order=order
        )
        dims.append(shuffled.affine_dim)
    stable = len(set(dims)) == 1

    semigroup, lines = _semigroup_report(gamma)
    payload = {
        "semigroup": semigroup,
        "template": presentation.template.to_json_dict(),
        "presentation": presentation.to_json_dict(),
        "elimination": result.to_json_dict(),
        "predicted_dim_single_binomial": predicted,
        "determinism": {
            "seed": args.seed,
            "shuffles": args.shuffles,
            "stable": stable,
            "affine_dims": [d for d in dims],
        },
    }

    lines.append("")
    lines.extend(_template_lines(presentation.template))
    lines.append("")
    lines.extend(_equation_lines(presentation, result))
    if predicted is not None:
        lines.append(f"single-binomial prediction: {predicted}")
    lines.append(
        f"determinism check ({args.shuffles} shuffles, seed {args.seed}): "
        + ("affine dimension stable" if stable else "UNSTABLE")
    )
    code = 0 if stable else 1
    return code, payload, lines


# -- wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgamma",
        description="Moduli of complete subalgebras of C[[t]] with a "
        "prescribed order semigroup.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--seed", type=int, default=0,
        help="seed for randomized self-checks (used by analyze)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", parents=[common], help="semigroup invariants")
    p.add_argument("generators", help="comma-separated generators, e.g. 4,6,13")
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("template", parents=[common], help="normal-form template")
    p.add_argument("generators")
    p.set_defaults(handler=cmd_template)

    p = sub.add_parser("sdec", parents=[common], help="deceptive binomials")
    p.add_argument("generators")
    p.set_defaults(handler=cmd_sdec)

    p = sub.add_parser(
        "equations", parents=[common],
        help="defining equations and linear elimination",
    )
    p.add_argument("generators")
    p.set_defaults(handler=cmd_equations)

    p = sub.add_parser("reduce", parents=[common], help="reduction trace")
    p.add_argument("generators")
    p.add_argument("--series", required=True, help="series to reduce, e.g. '2*t^13+t^14'")
    p.add_argument("--point", help="coefficient values (unset variables are 0)")
    p.add_argument("--subset", help="restrict removable powers to these generator indices")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("check", parents=[common], help="variety membership of a point")
    p.add_argument("generators")
    p.add_argument("--point", help="e.g. 'b7=1,a5=1/2' (unset variables are 0)")
    p.add_argument(
        "--oracle", action="store_true",
        help="also verify with the brute-force closure computation",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("plane", parents=[common], help="plane criterion / stratum test")
    p.add_argument("generators")
    p.add_argument("--point", help="run the stratum test at this point")
    p.set_defaults(handler=cmd_plane)

    p = sub.add_parser("normalize", parents=[common], help="canonical normal form")
    p.add_argument("--series", required=True, help="semicolon-separated series list")
    p.add_argument("--mod", type=int, required=True, help="work mod t^MOD")
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("analyze", parents=[common], help="full report")
    p.add_argument("generators")
    p.add_argument("--shuffles", type=int, default=5, help="number of shuffled reruns")
    p.set_defaults(handler=cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
