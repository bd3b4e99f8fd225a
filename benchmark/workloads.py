"""The three workloads: their seeded inputs, one round of timed calls, and
the checks made after each operation.

A workload makes its inputs from the seed alone (``make_inputs``) and runs
them in rounds (``run_round``). Every round makes the same kind and number
of calls, so the share of failed operations does not depend on how many
rounds fit in a run. Program calls made by a check run with the tracer
paused and outside every timer.
"""

from __future__ import annotations

import io
import json
import random
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import reference as ref


def _median(values):
    return statistics.median(values) if values else 0.0


def _terms(poly):
    """(exponents, coefficient) pairs of a program polynomial, from its
    dense coefficients and the wire order of monomials."""
    return ref.dense_terms(poly.dimension, poly.degree, poly.coefficients)


# --- cones-large -------------------------------------------------------------

CONE_SIZES = ((4, 9), (5, 10))
CONE_PAIRS = 6  # more than the rounds that fit in a run; later rounds cycle


class ConesLarge:
    """One round takes the next seeded pair of generic cones, one at each
    of the ROADMAP's headline sizes, through both pipelines."""

    name = "cones-large"

    def make_inputs(self, cf, seed: int, trace: bool):
        rng = random.Random(seed)
        pairs = 1 if trace else CONE_PAIRS
        return [tuple(cf.sampling.sample_cone(rng, d, n) for d, n in CONE_SIZES) for _ in range(pairs)]

    def run_round(self, cf, inputs, index: int, run):
        run.attempt(lambda: self.operation(cf, inputs[index % len(inputs)], run))

    @staticmethod
    def operation(cf, pair, run):
        spent = 0.0
        results = []
        for cone in pair:
            d, n = cone.dimension, cone.num_generators
            start = run.now()
            by_triangulation = cf.triangulation.pk_via_triangulation(cone)
            middle = run.now()
            by_interpolation = cf.interpolation.pk_via_interpolation(cone)
            end = run.now()
            run.sample(f"tri_d{d}n{n}_s", start, middle)
            run.sample(f"interp_d{d}n{n}_s", middle, end)
            spent += end - start
            results.append((cone, by_triangulation, by_interpolation))
        return spent, lambda: all(ConesLarge.check(cf, *result) for result in results)

    @staticmethod
    def check(cf, cone, by_triangulation, by_interpolation) -> bool:
        """Both pipelines agree, the result does not depend on the pulling
        anchor, and it has the paper's value at every diagonal dual."""
        if by_interpolation != by_triangulation:
            return False
        last = cone.num_generators - 1
        if cf.triangulation.pk_via_triangulation(cone, anchor=last) != by_triangulation:
            return False
        return ref.check_diagonal_values(cone.generators, _terms(by_triangulation))

    def detail(self, run) -> dict:
        out = {}
        for d, n in CONE_SIZES:
            tri = _median(run.samples[f"tri_d{d}n{n}_s"])
            interp = _median(run.samples[f"interp_d{d}n{n}_s"])
            out[f"interp_d{d}n{n}_s"] = interp
            out[f"tri_d{d}n{n}_s"] = tri
            out[f"interp_over_tri_d{d}n{n}"] = interp / tri if tri else 0.0
        return out


# --- polytopes ---------------------------------------------------------------

# (kind, dimension, vertices, t drawn from -span..span) for one round. The
# three boxes cost about the same whatever the seed and sit in the middle
# of the round's operation times, which keeps the median operation steady.
POLYTOPES = (
    ("cyclic", 4, 8, 5),
    ("cyclic", 4, 9, 5),
    ("cyclic", 3, 12, 7),
    ("cyclic", 3, 11, 6),
    ("box", 4, None, None),
    ("box", 4, None, None),
    ("box", 4, None, None),
)
EVAL_POINTS = 4


@dataclass
class PolytopeInput:
    kind: str
    vertices: list
    facets: list | None  # the benchmark's own facets; None for boxes
    sides: list | None
    points: list  # evaluation points
    z: tuple  # point for the Lawrence volume
    volume: Fraction
    facet_count: int


class Polytopes:
    """One round assembles every polytope of the seeded list with Brion's
    decomposition on the default interpolation method and evaluates each at
    its seeded points."""

    name = "polytopes"

    def __init__(self):
        self._references = {}

    def make_inputs(self, cf, seed: int, trace: bool):
        rng = random.Random(seed)
        out = []
        for kind, d, n, span in POLYTOPES:
            if kind == "cyclic":
                ts = sorted(rng.sample(range(-span, span + 1), n))
                vertices = ref.moment_curve(ts, d)
                facets = ref.gale_facets(n, d)
                sides = None
                volume = sum((ref.simplex_volume(s) for s in ref.coned_simplices(vertices, facets)), Fraction(0))
                count = ref.cyclic_facet_count(n, d)
                forbidden = ref.differences(vertices + [ref.centroid(vertices)])
            else:
                sides = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
                vertices = ref.box_vertices(sides)
                facets = None
                volume = Fraction(1)
                for a in sides:
                    volume *= a
                count = 2 * d
                forbidden = ref.differences(vertices)
            points = [ref.generic_point(rng, d, forbidden, 3, (40, 80)) for _ in range(EVAL_POINTS)]
            z = ref.generic_point(rng, d, forbidden, 9, (1, 9))
            out.append(PolytopeInput(kind, vertices, facets, sides, points, z, volume, count))
        return out

    def run_round(self, cf, inputs, index: int, run):
        for position, item in enumerate(inputs):
            run.attempt(lambda: self.operation(cf, position, item, run))

    def operation(self, cf, position: int, item: PolytopeInput, run):
        start = run.now()
        polytope = cf.brion.polytope_combinatorics(item.vertices, allow_nonsimplicial=item.kind == "box")
        transform = cf.brion.polytope_transform(polytope)
        values = []
        for xi in item.points:
            began = run.now()
            values.append(cf.brion.evaluate_transform(transform, xi))
            run.sample("brion_eval_s", began, run.now())
        spent = run.now() - start
        return spent, lambda: self.check(position, item, polytope, transform, values)

    def references(self, position: int, item: PolytopeInput):
        """(reference value, reference size, Brion term size) per point,
        computed once per polytope."""
        if position not in self._references:
            out = []
            for xi in item.points:
                if item.kind == "box":
                    value, size = ref.box_transform(item.sides, xi)
                    brion = ref.box_term_size(item.sides, xi)
                else:
                    value, size = ref.simplices_transform(ref.coned_simplices(item.vertices, item.facets), xi)
                    brion = ref.brion_term_size(item.vertices, item.facets, xi)
                out.append((value, size, brion))
            self._references[position] = out
        return self._references[position]

    def check(self, position, item, polytope, transform, values) -> bool:
        if len(polytope.facets) != item.facet_count:
            return False
        terms = [(term.apex, term.generators, _terms(term.numerator)) for term in transform.terms]
        if ref.lawrence_volume(terms, item.z) != item.volume:
            return False
        return all(
            ref.close(value, reference, (size, brion))
            for value, (reference, size, brion) in zip(values, self.references(position, item))
        )

    def detail(self, run) -> dict:
        return {"brion_eval_s": _median(run.samples["brion_eval_s"])}


# --- small-mix ---------------------------------------------------------------

# Every round makes the same calls on the same sizes; the seed only picks
# the coordinates, the sampling seeds and the evaluation points, so that
# the cost of a round depends little on the seed.
SMALL_SIZES = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7))
VERVAN_CALLS = ((4, 4), (4, 8), (5, 4), (5, 8), (6, 4), (6, 8))  # (n, families) at d = 3
BOXES, OCTAHEDRA = 5, 3


@dataclass
class Call:
    command: str
    argv: list
    cone: tuple | None = None  # generators, when the cone is given inline
    families: int = 0
    brion: tuple | None = None  # ("box", sides, xi) or ("octahedron", axes, xi)


def _cone_json(cone) -> str:
    return json.dumps(
        {
            "apex": [str(c) for c in cone.apex],
            "generators": [[str(c) for c in g] for g in cone.generators],
        }
    )


def _parse_generators(data) -> tuple:
    return tuple(tuple(Fraction(c) for c in g) for g in data["generators"])


def _parse_terms(data) -> list:
    return [(tuple(t["exponents"]), Fraction(t["coefficient"])) for t in data["terms"]]


class SmallMix:
    """One round makes a fixed seeded list of in-process CLI calls on small
    inputs, d in {2, 3} and n <= d + 4."""

    name = "small-mix"

    def __init__(self):
        self._references = {}

    def make_inputs(self, cf, seed: int, trace: bool):
        rng = random.Random(seed)
        calls = []

        def cone_args(command, d, n, inline):
            if inline:
                cone = cf.sampling.sample_cone(rng, d, n)
                return [command, _cone_json(cone)], cone.generators
            return [command, "--sample", str(d), str(n), "--seed", str(rng.randrange(10**6))], None

        for i, (d, n) in enumerate(SMALL_SIZES):
            argv, cone = cone_args("validate", d, n, inline=i % 2 == 0)
            calls.append(Call("validate", argv, cone))
        for i, (d, n) in enumerate(SMALL_SIZES + SMALL_SIZES):
            argv, cone = cone_args("transform", d, n, inline=i % 2 == 1)
            argv += ["--method", ("interpolation", "triangulation")[i // len(SMALL_SIZES)]]
            if i % 4 == 3:
                argv.append("--verbose")
            calls.append(Call("transform", argv, cone))
        for i, (d, n) in enumerate(SMALL_SIZES):
            argv, cone = cone_args("compare", d, n, inline=i % 2 == 0)
            calls.append(Call("compare", argv, cone))
        for n, k in VERVAN_CALLS:
            # d = 3 and n <= 6 keep to the sizes where the minor prediction
            # is checked exhaustively, so no family raises.
            argv, cone = cone_args("vervan", 3, n, inline=True)
            argv += ["--random", str(k), "--seed", str(rng.randrange(10**6))]
            calls.append(Call("vervan", argv, cone, families=k))
        for i in range(BOXES + OCTAHEDRA):
            if i < BOXES:
                sides = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(3)]
                vertices = ref.box_vertices(sides)
                xi = ref.generic_point(rng, 3, ref.differences(vertices), 3, (40, 80))
                extra = ["--allow-nonsimplicial"]
                brion = ("box", sides, xi)
            else:
                axes = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(3)]
                vertices, _ = ref.octahedron(axes)
                origin = (Fraction(0),) * 3
                xi = ref.generic_point(rng, 3, ref.differences(vertices + [origin]), 3, (40, 80))
                extra = []
                brion = ("octahedron", axes, xi)
            polytope = json.dumps({"vertices": [[str(c) for c in v] for v in vertices]})
            argv = ["brion-eval", polytope, "--xi", json.dumps([str(c) for c in xi])] + extra
            calls.append(Call("brion-eval", argv, brion=brion))
        return calls

    def run_round(self, cf, inputs, index: int, run):
        for position, call in enumerate(inputs):
            run.attempt(lambda: self.operation(cf, position, call, run))

    def operation(self, cf, position: int, call: Call, run):
        buffer = io.StringIO()
        start = run.now()
        with redirect_stdout(buffer):
            code = cf.cli.main(call.argv)
        end = run.now()
        if call.command == "vervan":
            run.sample("vervan_family_s", start, end, call.families)
        return end - start, lambda: code == 0 and self.check(position, call, buffer.getvalue())

    def check(self, position: int, call: Call, text: str) -> bool:
        if call.command == "vervan":
            records = [json.loads(line) for line in text.splitlines()]
            return len(records) == call.families and all(
                ref.check_vervan_record(
                    call.cone,
                    [tuple(i - 1 for i in member) for member in record["family"]],
                    Fraction(record["minor"]),
                    record["witness"],
                )
                for record in records
            )
        out = json.loads(text)
        if call.command == "brion-eval":
            reference, size, brion = self.brion_reference(position, call.brion)
            return ref.close(complex(out["re"], out["im"]), reference, (size, brion))
        generators = call.cone if call.cone is not None else _parse_generators(out["cone"])
        if call.command == "validate":
            witness = tuple(Fraction(c) for c in out["witness"])
            return out["pointed"] is True and all(ref.inner(witness, g) > 0 for g in generators)
        if call.command == "compare":
            return out["equal"] is True and ref.check_diagonal_values(generators, _parse_terms(out["interpolation"]))
        poly = out.get("polynomial", out)
        return ref.check_diagonal_values(generators, _parse_terms(poly))

    def brion_reference(self, position: int, spec):
        if position not in self._references:
            kind, shape, xi = spec
            if kind == "box":
                value, size = ref.box_transform(shape, xi)
                brion = ref.box_term_size(shape, xi)
            else:
                vertices, facets = ref.octahedron(shape)
                value, size = ref.simplices_transform(ref.coned_simplices(vertices, facets), xi)
                brion = ref.brion_term_size(vertices, facets, xi)
            self._references[position] = (value, size, brion)
        return self._references[position]

    def detail(self, run) -> dict:
        return {
            "cli_call_p95_s": statistics.quantiles(run.op_times, n=100)[94],
            "vervan_family_s": _median(run.samples["vervan_family_s"]),
        }


WORKLOADS = {w.name: w for w in (ConesLarge, Polytopes, SmallMix)}
