"""Tests of the benchmark's own checkers on hand-checked cases.

Run with ``python3 -m pytest benchmark`` from the root of the repository.
Each checker must accept the right answer and reject a corrupted one; the
program itself is not imported.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

F = Fraction
XI = (F(1, 47), F(-2, 53), F(3, 61))
Z = (F(2, 3), F(-5, 7), F(3, 11))


def expand(forms, d):
    """Dense terms of prod <form, xi>, by repeated multiplication."""
    poly = {(0,) * d: F(1)}
    for form in forms:
        out = {}
        for exps, c in poly.items():
            for k, a in enumerate(form):
                if a:
                    bumped = exps[:k] + (exps[k] + 1,) + exps[k + 1 :]
                    out[bumped] = out.get(bumped, 0) + c * a
        poly = out
    return sorted(poly.items(), reverse=True)


def add_terms(*polys):
    total = {}
    for poly in polys:
        for exps, c in poly:
            total[exps] = total.get(exps, 0) + c
    return sorted(total.items(), reverse=True)


def brion_sum(terms, xi):
    """sum_v p_v(xi) e^{2 pi i <v, xi>} / ((-2 pi i)^d prod <w, xi>)."""
    d = len(xi)
    total = 0j
    for apex, generators, numerator in terms:
        ratio = ref.poly_value(numerator, xi)
        for w in generators:
            ratio /= ref.inner(w, xi)
        total += float(ratio) * cmath.exp(2j * math.pi * float(ref.inner(apex, xi)))
    return total / (-2j * math.pi) ** d


def corrupt_first(terms):
    """The same terms with the first coefficient of the first vertex
    changed by 1."""
    apex, generators, numerator = terms[0]
    (exps, c), *rest = numerator
    return [(apex, generators, [(exps, c + 1)] + rest)] + terms[1:]


# --- unit cube ---------------------------------------------------------------

CUBE = ref.box_vertices([1, 1, 1])


def cube_terms():
    """Every vertex cone of the unit cube is simplicial on +-e_k, with
    numerator |det| = 1."""
    terms = []
    for v in CUBE:
        generators = [tuple(F(1 - 2 * v[k]) if j == k else F(0) for j in range(3)) for k in range(3)]
        terms.append((v, generators, [((0, 0, 0), F(1))]))
    return terms


def test_cube_lawrence_volume():
    assert ref.lawrence_volume(cube_terms(), Z) == 1
    assert ref.lawrence_volume(corrupt_first(cube_terms()), Z) != 1


def test_cube_evaluation():
    reference, size = ref.box_transform([1, 1, 1], XI)
    brion = ref.box_term_size([1, 1, 1], XI)
    value = brion_sum(cube_terms(), XI)
    assert ref.close(value, reference, (size, brion))
    assert not ref.close(value * (1 + 1e-6), reference, (size, brion))


# --- octahedron --------------------------------------------------------------

OCTAHEDRON, OCTAHEDRON_FACETS = ref.octahedron([1, 1, 1])


def octahedron_terms():
    """At the vertex s e_k the tangent cone has the four edges to +-e_j,
    j != k. Splitting it into two simplicial cones, each of |det| 2, gives
    the numerator p = -4 s xi_k."""
    terms = []
    for v in OCTAHEDRON:
        k = next(i for i, c in enumerate(v) if c)
        generators = [tuple(a - b for a, b in zip(u, v)) for u in OCTAHEDRON if u[k] == 0]
        numerator = [(tuple(1 if j == k else 0 for j in range(3)), -4 * v[k])] + [
            (tuple(1 if j == i else 0 for j in range(3)), F(0)) for i in range(3) if i != k
        ]
        terms.append((v, generators, sorted(numerator, reverse=True)))
    return terms


def test_octahedron_facets_and_volume():
    assert len(OCTAHEDRON_FACETS) == 8
    simplices = ref.coned_simplices(OCTAHEDRON, OCTAHEDRON_FACETS)
    assert sum(ref.simplex_volume(s) for s in simplices) == F(4, 3)


def test_octahedron_lawrence_volume():
    assert ref.lawrence_volume(octahedron_terms(), Z) == F(4, 3)
    assert ref.lawrence_volume(corrupt_first(octahedron_terms()), Z) != F(4, 3)


def _brion_terms(terms, xi):
    d = len(xi)
    out = []
    for _, generators, numerator in terms:
        ratio = ref.poly_value(numerator, xi)
        for w in generators:
            ratio /= ref.inner(w, xi)
        out.append(float(ratio) / (2 * math.pi) ** d)
    return out


def test_octahedron_evaluation():
    reference, size = ref.simplices_transform(ref.coned_simplices(OCTAHEDRON, OCTAHEDRON_FACETS), XI)
    brion = ref.brion_term_size(OCTAHEDRON, OCTAHEDRON_FACETS, XI)
    value = brion_sum(octahedron_terms(), XI)
    assert math.isclose(brion, sum(abs(t) for t in _brion_terms(octahedron_terms(), XI)), rel_tol=1e-12)
    assert ref.close(value, reference, (size, brion))
    assert not ref.close(value * (1 + 1e-6), reference, (size, brion))


# --- cyclic polytope, t = 0..5, d = 3 ------------------------------------------

CYCLIC = ref.moment_curve(range(6), 3)


def test_cyclic_facets():
    facets = ref.gale_facets(6, 3)
    assert len(facets) == ref.cyclic_facet_count(6, 3) == 8
    # Gale's condition gives the fans around the first and the last point.
    assert facets == [(0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5)]


def test_cyclic_volume():
    """Pulling from t = 0 gives the simplices (0,1,2,5), (0,2,3,5), (0,3,4,5),
    of Vandermonde volumes 120/6, 180/6 and 120/6: 70 in all."""
    simplices = ref.coned_simplices(CYCLIC, ref.gale_facets(6, 3))
    assert sum(ref.simplex_volume(s) for s in simplices) == 70


def test_cyclic_evaluation_two_triangulations():
    facets = ref.gale_facets(6, 3)
    coned, size = ref.simplices_transform(ref.coned_simplices(CYCLIC, facets), XI)
    pulled_simplices = [tuple(CYCLIC[i] for i in s) for s in ((0, 1, 2, 5), (0, 2, 3, 5), (0, 3, 4, 5))]
    pulled, other = ref.simplices_transform(pulled_simplices, XI)
    assert ref.close(pulled, coned, (size, other))
    assert not ref.close(pulled * (1 + 1e-6), coned, (size, other))


def vertex_cone():
    """The tangent cone of the cyclic polytope at t = 0: generators
    (t, t^2, t^3), t = 1..5, over a convex pentagon. Triangulated from the
    first generator it has the simplices (1,2,3), (1,3,4), (1,4,5)."""
    generators = ref.moment_curve(range(1, 6), 3)
    parts = []
    for simplex in ((0, 1, 2), (0, 2, 3), (0, 3, 4)):
        volume = abs(ref.det([generators[i] for i in simplex]))
        others = [g for j, g in enumerate(generators) if j not in simplex]
        parts.append([(e, c * volume) for e, c in expand(others, 3)])
    return generators, add_terms(*parts)


def test_diagonal_values():
    generators, numerator = vertex_cone()
    assert ref.check_diagonal_values(generators, numerator)
    (exps, c), *rest = numerator
    assert not ref.check_diagonal_values(generators, [(exps, c + 1)] + rest)


# --- vervan minors -----------------------------------------------------------

VERVAN_CONE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


def test_vervan_product_family():
    """The duals of {1,2}, {1,3}, {2,3} are e_3, -e_2, e_1: minor 1. The
    simplex {1,2,3} holds all three (|det| 1); the product is 1."""
    family = [(0, 1), (0, 2), (1, 2)]
    assert ref.vervan_expected(VERVAN_CONE, family) == (1, 1)
    assert ref.check_vervan_record(VERVAN_CONE, family, F(1), [])
    assert not ref.check_vervan_record(VERVAN_CONE, family, F(-2), [])
    assert not ref.check_vervan_record(VERVAN_CONE, family, F(1), [0])


def test_vervan_star_family():
    """Three diagonals through generator 1 put their duals in w_1-perp: minor 0."""
    family = [(0, 1), (0, 2), (0, 3)]
    assert ref.vervan_expected(VERVAN_CONE, family)[0] == 0
    assert ref.check_vervan_record(VERVAN_CONE, family, F(0), [0])
    assert not ref.check_vervan_record(VERVAN_CONE, family, F(0), [])
    assert not ref.check_vervan_record(VERVAN_CONE, family, F(-2), [0])
