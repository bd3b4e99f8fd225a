"""Polytope Fourier transforms assembled from vertex tangent cones.

The transform of a polytope is the sum over its vertices of the transforms
of the tangent cones there (Brion decomposition). Each tangent cone
contributes an exact numerator polynomial over its generator linear forms.
Evaluation computes each term's rational part exactly, in ``int`` on the
term's integer form, and only converts it to floating point at the end.

Evaluation uses the analysis convention with kernel e^{2 pi i <x, xi>}:

    f_hat(xi) = sum over vertices v of
        p_K(xi) * e^{2 pi i <v, xi>} / ((-2 pi i)^d * prod(<w, xi>))

which reproduces, for an axis-aligned box, the elementary closed form
prod((e^{2 pi i a_j xi_j} - 1) / (2 pi i xi_j)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .cones import Cone, _facets, _meet
from .errors import (
    DegenerateVertexError,
    DimensionError,
    ConeFourierError,
    FloatOverflowError,
    NonSimplicialFacetError,
    NotFullDimensionalError,
    SingularEvaluationPointError,
)
from .geometry import Vector, _adjugate, _clear_denominators, _echelon, as_vector, vec_sub, veronese
from .interpolation import pk_via_interpolation
from .triangulation import ConicTransform, pk_via_triangulation

METHODS = ("triangulation", "interpolation")


@dataclass(frozen=True)
class Polytope:
    """A polytope given by its vertices, with derived facet and adjacency
    data. Facets are vertex index sets; two vertices are adjacent when no
    third vertex lies on every facet through both, that is, when the
    smallest face containing them is an edge."""

    vertices: tuple[Vector, ...]
    facets: tuple[tuple[int, ...], ...]
    adjacency: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PolytopeTransform:
    terms: tuple[ConicTransform, ...]


def polytope_combinatorics(vertices: Sequence[Sequence], allow_nonsimplicial: bool = False) -> Polytope:
    """Derive facets and vertex adjacency from a vertex list, by an
    incremental double description in ``int``.

    The facets of the polytope are those of the cone over the lifted
    points (m, m v), m the lcm of v's denominators (``cones._facets``),
    sorted, each the set of points on its hyperplane. A point is a vertex
    exactly when no other point lies on every facet through it
    (``cones._meet``), and two vertices are adjacent exactly when no third
    point lies on every facet through both.

    Every input point must be a vertex of the hull, else DegenerateVertex
    names the first that is not, and the hull must be full-dimensional.
    Facets through more than d points are rejected unless
    ``allow_nonsimplicial`` is set, before the vertex test; the error names
    the facet whose first d affinely independent points, taken in index
    order, come first in ``combinations`` order. The relaxation covers
    simple cases such as boxes, whose vertex cones are still simplicial even
    though the facets are not.
    """
    points = tuple(as_vector(v) for v in vertices)
    if not points:
        raise NotFullDimensionalError("no vertices given")
    d = len(points[0])
    if d < 1:
        raise DimensionError("vertices need a positive dimension")
    if any(len(p) != d for p in points):
        raise DimensionError("vertices have mixed dimensions")
    if len(set(points)) != len(points):
        raise DegenerateVertexError("duplicate vertex in input")
    rows = [(m, *u) for u, m in map(_clear_denominators, points)]
    elimination = _adjugate(rows)
    if len(elimination[0]) <= d:
        raise NotFullDimensionalError(f"vertices span less than dimension {d}")
    facets = _facets(rows, elimination)

    if not allow_nonsimplicial:
        wide = [facet for facet, _, _ in facets if len(facet) > d]
        if wide:
            facet = min(wide, key=lambda f: [f[k] for k in _echelon([rows[i] for i in f])[0]])
            raise NonSimplicialFacetError(
                f"supporting hyperplane contains {len(facet)} > {d} vertices",
                facet=tuple(i + 1 for i in facet),
            )

    everything = (1 << len(rows)) - 1
    adjacency = []
    for i in range(len(rows)):
        meet = _meet(facets, len(rows), i)
        if meet[i] != 1 << i:
            other = meet[i] & ~(1 << i)
            j = (other & -other).bit_length()  # 1-based
            why = f"is not a vertex of the hull: point {j} lies on every facet through it"
            if meet[i] == everything:
                why = "lies on no facet; it is not a vertex of the hull"
            raise DegenerateVertexError(f"point {i + 1} {why}", index=i + 1)
        adjacency.append(tuple(j for j in range(len(rows)) if j != i and meet[j] == 1 << i | 1 << j))
    return Polytope(points, tuple(facet for facet, _, _ in facets), tuple(adjacency))


def tangent_cone(polytope: Polytope, vertex: int) -> Cone:
    """The cone of feasible directions at a vertex, apexed there; its
    generators are the edge directions toward adjacent vertices."""
    if not 0 <= vertex < len(polytope.vertices):
        raise DimensionError(f"vertex index {vertex} out of range")
    apex = polytope.vertices[vertex]
    return Cone(apex, tuple(vec_sub(polytope.vertices[j], apex) for j in polytope.adjacency[vertex]))


def polytope_transform(polytope: Polytope, method: str = "interpolation") -> PolytopeTransform:
    """One ConicTransform per vertex, numerators computed by the chosen
    pipeline. Per-cone failures are re-raised tagged with the vertex."""
    if method not in METHODS:
        raise DimensionError(f"unknown method {method!r}; expected one of {METHODS}")
    compute = pk_via_triangulation if method == "triangulation" else pk_via_interpolation
    terms = []
    for i in range(len(polytope.vertices)):
        cone = tangent_cone(polytope, i)
        try:
            numerator = compute(cone)
        except ConeFourierError as err:
            err.context["vertex"] = i + 1
            raise
        terms.append(ConicTransform(cone.apex, cone.generators, numerator))
    return PolytopeTransform(tuple(terms))


def evaluate_transform(transform: PolytopeTransform, xi: Sequence) -> complex:
    """Evaluate the assembled transform at a rational point.

    The singularity guard runs in exact arithmetic: every generator linear
    form must be nonzero at xi. Each term's rational part is computed
    exactly and only converted to floating point at the end. A point whose
    length is not the polytope's dimension is a DimensionError.
    """
    point = _evaluation_point(transform, xi)
    return sum(_unscaled_terms(transform, point), 0j) / (-2j * math.pi) ** len(point)


def per_term_values(transform: PolytopeTransform, xi: Sequence) -> list[complex]:
    """The individually normalized vertex contributions at xi, in vertex
    order; their sum is evaluate_transform(transform, xi)."""
    point = _evaluation_point(transform, xi)
    scale = (-2j * math.pi) ** len(point)
    return [value / scale for value in _unscaled_terms(transform, point)]


def _evaluation_point(transform: PolytopeTransform, xi: Sequence) -> Vector:
    return evaluation_point(xi, len(transform.terms[0].apex) if transform.terms else len(xi))


def evaluation_point(xi: Sequence, dimension: int) -> Vector:
    """xi as an exact vector, checked against the polytope's dimension."""
    point = as_vector(xi)
    if len(point) != dimension:
        raise DimensionError(
            f"evaluation point has length {len(point)}, expected the polytope's dimension {dimension}",
            dimension=dimension,
            length=len(point),
        )
    return point


def _unscaled_terms(transform: PolytopeTransform, point: Vector):
    """Each term's p_K(xi) e^{2 pi i <v, xi>} / prod(<w, xi>) in vertex
    order, after checking every term's linear forms for a zero at xi.

    The exact part runs in ``int`` on the terms' integer forms
    (``ConicTransform.integer_form``). With xi = eta / L, eta integral,
    u_j = m_j w_j, C = prod m_j and p_K = a / D, and p_K of degree n - d,

        p_K(xi) / prod <w_j, xi> = a(eta) C L^d / (D prod <u_j, eta>).

    Each <u_j, eta> is computed once, for the guard and for the product,
    and the Veronese image of eta once per numerator degree. The ratio, and
    the phase <v, xi>, are made Fractions of those ints: the same rationals
    as in ``Fraction`` arithmetic, so their floats, correctly rounded, are
    the same doubles. A ratio or phase too large for a float is a
    FloatOverflowError naming the term's vertex.
    """
    eta, lcm = _clear_denominators(point)
    d = len(eta)
    checked = []
    for term in transform.terms:
        form = term.integer_form
        if len(term.apex) != d:
            raise DimensionError(f"a term in dimension {len(term.apex)} at a point of length {d}")
        values = [sum(map(mul, u, eta)) for u in form[0]]
        if not all(values):
            raise SingularEvaluationPointError(
                "a generator linear form vanishes at the evaluation point",
                vertex=tuple(str(c) for c in term.apex),
                generator=tuple(str(c) for c in term.generators[values.index(0)]),
            )
        checked.append((term.apex, form, math.prod(values)))
    images = {}
    for vertex, (generators, scale, coefficients, denominator, apex, apex_scale), product in checked:
        degree = len(generators) - d
        if degree not in images:
            images[degree] = veronese(eta, degree)
        value = sum(map(mul, coefficients, images[degree]))
        ratio = Fraction(value * scale * lcm**d, denominator * product)
        phase = Fraction(sum(map(mul, apex, eta)), apex_scale * lcm)
        try:
            factor, turns = float(ratio), float(phase)
        except OverflowError:
            vertex = tuple(str(c) for c in vertex)
            raise FloatOverflowError("a term's ratio or phase is too large for a float", vertex=vertex) from None
        yield factor * cmath.exp(2j * math.pi * turns)
