"""Call tracing from outside the program.

``Tracer.install`` wraps the public functions of each conefourier module,
and the public methods of the classes it defines, in every module
namespace that binds them, so a call made through any import path is
timed. ``src/`` is not modified. Spans stay in memory as per-function
aggregates: calls, time in calls not nested in another call of the same
function or group, self time (duration minus wrapped child calls), and
calls and time per (caller, callee) pair.

Leaf helpers that run once per coordinate or per coefficient are left
unwrapped (``LEAVES``): wrapping them would multiply the traced run's time
and charge the tracer's own cost to their callers' self time.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = (
    "sampling",
    "geometry",
    "polynomials",
    "cones",
    "feasibility",
    "triangulation",
    "interpolation",
    "vervan",
    "brion",
    "serialize",
    "cli",
)

LEAVES = {
    "geometry.as_scalar",
    "geometry.as_vector",
    "geometry.dot",
    "geometry.vec_sub",
    "geometry.vec_scale",
    "geometry.is_zero_vector",
    "geometry.basis_size",
    "serialize.parse_rational",
    "serialize.format_rational",
}

# Functions timed together: a call nested inside another call of the same
# group is not counted twice.
GROUPS = {
    "cones.diagonals": ("cones.enumerate_diagonals", "cones.diagonal_for"),
    "interpolation.solve": ("interpolation.solve_exact", "interpolation.solve_with_details"),
    "brion.evaluate": ("brion.evaluate_transform", "brion.per_term_values"),
    "serialize.parse": (
        "serialize.parse_vector",
        "serialize.cone_from_json",
        "serialize.vertices_from_json",
        "serialize.polynomial_from_json",
        "serialize.family_from_json",
    ),
    "serialize.format": (
        "serialize.format_vector",
        "serialize.cone_to_json",
        "serialize.report_to_json",
        "serialize.polynomial_to_json",
        "serialize.system_to_json",
        "serialize.vervan_record_to_json",
    ),
}


class Tracer:
    def __init__(self, now=perf_counter):
        self.now = now
        self.calls = Counter()
        self.outer_time = Counter()
        self.self_time = Counter()
        self.edge_calls = Counter()
        self.edge_time = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.enabled = True
        self._stack: list[list] = []
        self._depth = Counter()
        self._groups: dict[str, tuple[str, ...]] = {}
        for group, members in GROUPS.items():
            for name in members:
                self._groups[name] = self._groups.get(name, ()) + (group,)

    def install(self, package):
        """Wrap every public function of the layer modules of ``package``."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in LEAVES:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if inspect.isgeneratorfunction(obj):
                        continue
                    wrapper = self._wrap(name, obj)
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, key, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method_name, method in list(vars(obj).items()):
                        if method_name.startswith("_") or not inspect.isfunction(method):
                            continue
                        if inspect.isgeneratorfunction(method):
                            continue
                        setattr(obj, method_name, self._wrap(f"{layer}.{method_name}", method))

    def _wrap(self, name: str, fn):
        tracer = self
        keys = (name,) + self._groups.get(name, ())
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            depth = tracer._depth
            outermost = [k for k in keys if depth[k] == 0]
            for k in keys:
                depth[k] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.now() - start
                stack.pop()
                for k in keys:
                    depth[k] -= 1
                for k in outermost:
                    tracer.outer_time[k] += elapsed
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[1]
                tracer.edge_calls[parent, name] += 1
                tracer.edge_time[parent, name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def dump(self) -> dict:
        """The aggregates as plain JSON-ready data."""
        return {
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "outer_s": self.outer_time[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "groups": {group: self.outer_time[group] for group in GROUPS},
            "edges": [
                {"caller": caller, "callee": callee, "calls": self.edge_calls[caller, callee], "s": self.edge_time[caller, callee]}
                for caller, callee in sorted(self.edge_calls, key=lambda e: (e[0] or "", e[1]))
            ],
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _observe_triangulation(tracer, result):
    tracer.counts["simplices"] += len(result.simplices)


def _observe_system(tracer, result):
    tracer.counts["rows"] += len(result.rows)
    tracer.counts["unknowns"] += result.unknowns
    tracer.counts["skipped"] += len(result.skipped)


def _observe_solve(tracer, result):
    poly, details = result
    tracer.counts["rank"] += details.rank
    bits = max((_bits(c) for c in poly.coefficients), default=0)
    tracer.maxima["coeff_bits"] = max(tracer.maxima["coeff_bits"], bits)


def _observe_vervan(tracer, record):
    tracer.counts["zero_families" if record.witness else "product_families"] += 1


def _observe_polytope(tracer, polytope):
    tracer.counts["facets"] += len(polytope.facets)


def _observe_tangent_cone(tracer, cone):
    tracer.maxima["cone_generators"] = max(tracer.maxima["cone_generators"], cone.num_generators)


OBSERVERS = {
    "triangulation.pulling_triangulation": _observe_triangulation,
    "interpolation.build_system": _observe_system,
    "interpolation.solve_with_details": _observe_solve,
    "vervan.verify_vervan": _observe_vervan,
    "brion.polytope_combinatorics": _observe_polytope,
    "brion.tangent_cone": _observe_tangent_cone,
}


def layer_metrics(tracer: Tracer, operations: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, each per operation except
    ratios and maxima."""
    t = tracer
    per = 1.0 / operations

    def outer(name):
        return t.outer_time[name] * per

    def calls(name):
        return t.calls[name] * per

    def self_s(name):
        return t.self_time[name] * per

    def ratio(a, b):
        return a / b if b else 0.0

    numerator_s = sum(
        t.edge_time["brion.polytope_transform", callee]
        for callee in ("triangulation.pk_via_triangulation", "interpolation.pk_via_interpolation")
    )
    return {
        "sampling.sample_cone_s": outer("sampling.sample_cone"),
        "sampling.accept_ratio": ratio(
            t.calls["sampling.sample_cone"], t.edge_calls["sampling.sample_cone", "cones.is_general_position"]
        ),
        "cones.general_position_s": outer("cones.is_general_position"),
        "cones.general_position_calls": calls("cones.is_general_position"),
        "cones.classify_s": outer("cones.classify_diagonal"),
        "cones.classify_calls": calls("cones.classify_diagonal"),
        "cones.diagonals_s": outer("cones.diagonals"),
        "cones.validate_s": outer("cones.validate_cone"),
        "geometry.determinant_s": outer("geometry.determinant"),
        "geometry.determinant_calls": calls("geometry.determinant"),
        "geometry.cross_calls": calls("geometry.generalized_cross"),
        "geometry.veronese_s": outer("geometry.veronese"),
        "geometry.veronese_calls": calls("geometry.veronese"),
        "feasibility.simplex_s": outer("feasibility.solve_nonnegative"),
        "feasibility.simplex_calls": calls("feasibility.solve_nonnegative"),
        "polynomials.multiply_linear_s": outer("polynomials.multiply_linear"),
        "polynomials.multiply_linear_calls": calls("polynomials.multiply_linear"),
        "polynomials.evaluate_s": outer("polynomials.evaluate"),
        "triangulation.pulling_self_s": self_s("triangulation.pulling_triangulation"),
        "triangulation.expand_s": outer("triangulation.expand_linear_forms"),
        "triangulation.simplices": t.counts["simplices"] * per,
        "interpolation.build_self_s": self_s("interpolation.build_system"),
        "interpolation.solve_s": outer("interpolation.solve"),
        "interpolation.rows": t.counts["rows"] * per,
        "interpolation.unknowns": t.counts["unknowns"] * per,
        "interpolation.rank": t.counts["rank"] * per,
        "interpolation.skipped": t.counts["skipped"] * per,
        "interpolation.pivot_yield": ratio(t.counts["rank"], t.counts["rows"]),
        "interpolation.max_coeff_bits": float(t.maxima["coeff_bits"]),
        "vervan.minor_s": outer("vervan.minor"),
        "vervan.witness_s": outer("vervan.vanishing_witness"),
        "vervan.verify_self_s": self_s("vervan.verify_vervan"),
        "vervan.zero_families": t.counts["zero_families"] * per,
        "vervan.product_families": t.counts["product_families"] * per,
        "brion.facets_s": outer("brion.polytope_combinatorics"),
        "brion.tangent_cone_s": outer("brion.tangent_cone"),
        "brion.numerators_s": numerator_s * per,
        "brion.transform_self_s": self_s("brion.polytope_transform"),
        "brion.evaluate_s": outer("brion.evaluate"),
        "brion.facets": t.counts["facets"] * per,
        "brion.cone_generators_max": float(t.maxima["cone_generators"]),
        "serialize.parse_s": outer("serialize.parse"),
        "serialize.format_s": outer("serialize.format"),
        "cli.main_self_s": self_s("cli.main"),
    }
