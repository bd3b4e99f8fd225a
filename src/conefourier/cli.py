"""Command line front end: JSON in, JSON out, exact all the way.

Exit codes: 0 on success, 1 for domain errors (reported as a structured
{"code", "message", "context"} object), 2 for malformed input or usage.
Output is ``serialize.format_json``'s indented JSON; ``vervan`` prints compact lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .brion import METHODS, evaluate_transform, evaluation_point, per_term_values, polytope_combinatorics
from .brion import polytope_transform
from .cones import Cone, validate_cone
from .errors import ConeFourierError, MalformedInputError
from .interpolation import build_system, pivots, pk_via_interpolation, solve_exact
from .sampling import sample_cone, sample_family
from .serialize import (
    cone_from_json,
    cone_to_json,
    family_from_json,
    format_json,
    format_rational,
    format_vector,
    parse_vector,
    polynomial_to_json,
    report_to_json,
    system_to_json,
    vervan_record_to_json,
    vertices_from_json,
)
from .triangulation import pk_via_triangulation, pulling_triangulation
from .vervan import verify_vervan


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line, on every call. Each subcommand
    stores its name in ``command``, and ``main`` runs ``cmd_<command>``
    (dashes read as underscores), so the parser holds no handler."""
    parser = argparse.ArgumentParser(
        prog="conefourier",
        description="Exact Fourier transforms of pointed polyhedral cones and polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cone_input(p):
        p.add_argument("input", nargs="?", help="cone JSON: a file path, '-' for stdin, or inline JSON")
        p.add_argument(
            "--sample",
            nargs=2,
            type=int,
            metavar=("D", "N"),
            help="instead of an input, sample a random generic cone with the given dimension and generator count",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for randomized inputs (default 0)")
        p.add_argument("--output", metavar="PATH", help="write the result here instead of stdout")

    p = sub.add_parser("validate", help="check pointedness and report cone degeneracies")
    add_cone_input(p)

    p = sub.add_parser("transform", help="compute the numerator polynomial of the cone transform")
    add_cone_input(p)
    p.add_argument("--method", choices=METHODS, default="interpolation")
    p.add_argument("--verbose", action="store_true", help="add the system (exact, costly pivots) or triangulation dump")

    p = sub.add_parser("compare", help="run both pipelines and check they agree")
    add_cone_input(p)

    p = sub.add_parser("vervan", help="verify minor identities for diagonal families")
    add_cone_input(p)
    p.add_argument(
        "--family",
        action="append",
        metavar="JSON",
        help="explicit family as a JSON array of 1-based index arrays; repeatable",
    )
    p.add_argument("--random", type=int, metavar="K", help="verify K random families instead")

    p = sub.add_parser("brion-eval", help="evaluate a polytope Fourier transform at a point")
    p.add_argument("input", nargs="?", help="polytope JSON with a \"vertices\" key")
    p.add_argument("--xi", metavar="JSON", help='evaluation point as a JSON array of rationals, e.g. \'["1/2","1/2"]\'')
    p.add_argument("--method", choices=METHODS, default="interpolation")
    p.add_argument("--allow-nonsimplicial", action="store_true", help="accept facets with more than d vertices")
    p.add_argument("--verbose", action="store_true", help="include the per-vertex breakdown")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("bench", help="time both pipelines on random cones")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="2,3,4", help="comma-separated dimensions (default 2,3,4)")
    p.add_argument("--max-extra", type=int, default=4, help="largest n - d to sweep (default 4)")
    p.add_argument("--trials", type=int, default=1, help="cones per size (default 1)")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--output", metavar="PATH")

    return parser


def _read_json_text(raw: str):
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as err:  # bad JSON, an int past the digit limit, deep nesting
        raise MalformedInputError(f"invalid JSON: {err}") from None


def _load_input(source: str | None):
    if source is None:
        raise MalformedInputError("an input is required: a file path, '-' for stdin, or inline JSON")
    text = source.strip()
    if text.startswith("{") or text.startswith("["):
        return _read_json_text(text)
    try:
        if text == "-":
            return _read_json_text(sys.stdin.read())
        with open(source, encoding="utf-8") as handle:
            return _read_json_text(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        raise MalformedInputError(f"cannot read {source!r}: {err}") from None


def _load_cone(args):
    """Returns (cone, sampled) where sampled says the cone was generated."""
    if args.sample:
        if args.input is not None:
            raise MalformedInputError("give either an input or --sample, not both")
        d, n = args.sample
        if d < 2 or n < d:
            raise MalformedInputError("--sample needs D >= 2 and N >= D")
        return sample_cone(random.Random(args.seed), d, n), True
    return cone_from_json(_load_input(args.input)), False


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _write(text: str, output: str | None):
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise MalformedInputError(f"cannot write {output!r}: {err}") from None


def cmd_validate(args) -> str:
    cone, sampled = _load_cone(args)
    report = report_to_json(validate_cone(cone))
    if sampled:
        report = {"cone": cone_to_json(cone), **report}
    return format_json(report) + "\n"


def cmd_transform(args) -> str:
    cone, sampled = _load_cone(args)
    extra = {}
    if not args.verbose:
        poly = (pk_via_triangulation if args.method == "triangulation" else pk_via_interpolation)(cone)
    elif args.method == "triangulation":
        poly = pk_via_triangulation(cone)
        extra = {"triangulation": {"simplices": [[i + 1 for i in s] for s in pulling_triangulation(cone).simplices]}}
    else:
        system = build_system(cone)
        poly = solve_exact(system)
        extra = {"system": system_to_json(system, pivots(system))}
    if not (sampled or args.verbose):
        return format_json(polynomial_to_json(poly)) + "\n"
    out = {"cone": cone_to_json(cone)} if sampled else {}
    return format_json({**out, "polynomial": polynomial_to_json(poly), **extra}) + "\n"


def cmd_compare(args) -> str:
    cone, sampled = _load_cone(args)
    by_triangulation = pk_via_triangulation(cone)
    by_interpolation = pk_via_interpolation(cone)
    out = {}
    if sampled:
        out["cone"] = cone_to_json(cone)
    out["triangulation"] = polynomial_to_json(by_triangulation)
    out["interpolation"] = polynomial_to_json(by_interpolation)
    out["equal"] = by_triangulation == by_interpolation
    return format_json(out) + "\n"


def cmd_vervan(args) -> tuple[str, int]:
    """One JSON line per family, in order: its record, or the compact error
    object when its check raises. Returns (text, 1) if any family raised."""
    cone, _ = _load_cone(args)
    if args.random is not None and args.random < 1:
        raise MalformedInputError(f"--random needs K >= 1, got {args.random}")
    if args.family and args.random:
        raise MalformedInputError("give either --family or --random, not both")
    if args.family:
        families = [family_from_json(_read_json_text(text)) for text in args.family]
    elif args.random:
        rng = random.Random(args.seed)
        families = [sample_family(rng, cone) for _ in range(args.random)]
    else:
        raise MalformedInputError("vervan needs --family or --random")
    lines, status = [], 0
    for fam in families:
        try:
            line = vervan_record_to_json(verify_vervan(cone, fam))
        except ConeFourierError as err:
            line, status = _error_json(err), 1
        lines.append(json.dumps(line))
    return "".join(line + "\n" for line in lines), status


def cmd_brion_eval(args) -> str:
    data = _load_input(args.input)
    vertices = vertices_from_json(data)
    if args.xi is not None:
        xi = parse_vector(_read_json_text(args.xi))
    elif isinstance(data, dict) and "xi" in data:
        xi = parse_vector(data["xi"])
    else:
        raise MalformedInputError('an evaluation point is required: --xi or a "xi" key in the input')
    xi = evaluation_point(xi, len(vertices[0]))  # before the facet search and the cone solves
    polytope = polytope_combinatorics(vertices, allow_nonsimplicial=args.allow_nonsimplicial)
    transform = polytope_transform(polytope, method=args.method)
    value = evaluate_transform(transform, xi)
    out = {"re": value.real, "im": value.imag}
    if args.verbose:
        out["terms"] = [
            {"vertex": format_vector(term.apex), "re": v.real, "im": v.imag}
            for term, v in zip(transform.terms, per_term_values(transform, xi))
        ]
    return format_json(out) + "\n"


def cmd_bench(args) -> tuple[str, int]:
    """Time both pipelines per size, each on its own copy of every sampled
    cone, whose minor table is empty, so neither reads minors or duals the
    other computed. Returns (text, 1) if they disagreed on any cone, since
    the CSV has no ``match`` column."""
    try:
        dims = [int(part) for part in args.dims.split(",") if part]
    except ValueError:
        raise MalformedInputError(f"bad --dims value {args.dims!r}") from None
    if not dims or any(d < 2 for d in dims):
        raise MalformedInputError("--dims needs integers >= 2")
    if args.max_extra < 0:
        raise MalformedInputError(f"--max-extra needs an integer >= 0, got {args.max_extra}")
    if args.trials < 1:
        raise MalformedInputError(f"--trials needs an integer >= 1, got {args.trials}")
    rng = random.Random(args.seed)
    records = []
    for d in dims:
        for extra in range(args.max_extra + 1):
            n = d + extra
            tri_total = 0.0
            interp_total = 0.0
            match = True
            for _ in range(args.trials):
                cone = sample_cone(rng, d, n)
                fresh = Cone(cone.apex, cone.generators)
                start = time.perf_counter()
                by_triangulation = pk_via_triangulation(fresh)
                tri_total += time.perf_counter() - start
                fresh = Cone(cone.apex, cone.generators)
                start = time.perf_counter()
                by_interpolation = pk_via_interpolation(fresh)
                interp_total += time.perf_counter() - start
                match = match and by_triangulation == by_interpolation
            records.append(
                {
                    "n": n,
                    "d": d,
                    "triangulation_seconds": tri_total / args.trials,
                    "interpolation_seconds": interp_total / args.trials,
                    "match": match,
                }
            )
    status = 0 if all(r["match"] for r in records) else 1
    if args.csv:
        lines = ["n,d,triangulation_seconds,interpolation_seconds"]
        lines += [
            f"{r['n']},{r['d']},{r['triangulation_seconds']:.6f},{r['interpolation_seconds']:.6f}"
            for r in records
        ]
        return "".join(line + "\n" for line in lines), status
    return format_json(records) + "\n", status


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line and return its exit code. It may be called any
    number of times in one process: every call parses with one parser, built
    on the first call, and looks its handler up in this module when it runs,
    so a handler replaced after that call is the one that runs."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:  # argparse already printed usage
        return 0 if exit_.code in (0, None) else 2
    try:
        result = globals()["cmd_" + args.command.replace("-", "_")](args)
        text, status = result if isinstance(result, tuple) else (result, 0)
        _write(text, args.output)
    except MalformedInputError as err:
        _print_error(err)
        return 2
    except ConeFourierError as err:
        _print_error(err)
        return 1
    return status


def _error_json(err: ConeFourierError) -> dict:
    return {"code": err.code, "message": err.message, "context": _jsonable(err.context)}


def _print_error(err: ConeFourierError):
    sys.stdout.write(format_json(_error_json(err)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
