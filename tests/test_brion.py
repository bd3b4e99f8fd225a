import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conefourier import (
    Cone,
    evaluate_transform,
    polytope_combinatorics,
    polytope_transform,
    tangent_cone,
)
from conefourier.brion import PolytopeTransform, per_term_values
from conefourier.errors import (
    ConeFourierError,
    DegenerateVertexError,
    DimensionError,
    FloatOverflowError,
    NonSimplicialFacetError,
    NotFullDimensionalError,
    SingularEvaluationPointError,
)
from conefourier.geometry import dot, generalized_cross, is_zero_vector, vec_sub
from conefourier.polynomials import HomogeneousPolynomial
from conefourier.triangulation import ConicTransform


def nonsingular_point(rng, generators, dimension):
    """A random rational point off every generator's hyperplane: each
    coordinate a nonzero numerator in [-9, 9] over a denominator in [1, 8],
    redrawn whole until no <g, xi> is 0."""
    while True:
        xi = []
        for _ in range(dimension):
            numerator = 0
            while numerator == 0:
                numerator = rng.randint(-9, 9)
            xi.append(Fraction(numerator, rng.randint(1, 8)))
        if all(dot(g, xi) != 0 for g in generators):
            return tuple(xi)


def box_closed_form(sides, xi):
    """Independent oracle: product of one-dimensional interval transforms."""
    value = 1 + 0j
    for a, x in zip(sides, xi):
        a, x = float(a), float(x)
        value *= (cmath.exp(2j * math.pi * a * x) - 1) / (2j * math.pi * x)
    return value


def box_vertices(sides):
    return [tuple(c) for c in product(*[(0, a) for a in sides])]


def sample_box_point(rng, sides):
    """Rational point avoiding both the polar locus and the zeros of the
    closed form (where a relative comparison is meaningless)."""
    while True:
        xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in sides)
        if any(x == 0 for x in xi):
            continue
        if any((a * x).denominator == 1 for a, x in zip(sides, xi)):
            continue
        return xi


class TestCombinatorics:
    def test_unit_square(self, unit_square_vertices):
        P = polytope_combinatorics(unit_square_vertices)
        assert len(P.facets) == 4
        assert all(len(neighbors) == 2 for neighbors in P.adjacency)

    def test_simplex_3d(self):
        P = polytope_combinatorics([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(P.facets) == 4
        assert all(len(neighbors) == 3 for neighbors in P.adjacency)

    def test_octahedron(self, octahedron_vertices):
        P = polytope_combinatorics(octahedron_vertices)
        assert len(P.facets) == 8
        assert all(len(neighbors) == 4 for neighbors in P.adjacency)
        # antipodal vertices are never adjacent
        for i, j in [(0, 1), (2, 3), (4, 5)]:
            assert j not in P.adjacency[i]

    def test_interior_point_rejected(self):
        with pytest.raises(DegenerateVertexError):
            polytope_combinatorics([(0, 0), (4, 0), (4, 4), (0, 4), (1, 1)])

    def test_flat_input_rejected(self):
        for points in ([(0, 0), (1, 1), (2, 2)], [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)]):
            with pytest.raises(NotFullDimensionalError) as err:
                polytope_combinatorics(points)
            assert err.value.message == f"vertices span less than dimension {len(points[0])}"

    def test_cube_rejected_by_default(self):
        with pytest.raises(NonSimplicialFacetError) as err:
            polytope_combinatorics(box_vertices([1, 1, 1]))
        assert err.value.context == {"facet": (1, 2, 3, 4)}

    def test_cube_allowed_with_flag(self):
        P = polytope_combinatorics(box_vertices([1, 1, 1]), allow_nonsimplicial=True)
        assert len(P.facets) == 6
        assert all(len(facet) == 4 for facet in P.facets)
        assert all(len(neighbors) == 3 for neighbors in P.adjacency)

    @pytest.mark.parametrize(
        "points, index",
        [
            ([(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)], 5),  # a square's mid-edge point
            ([(0, 0), (0, 1), (0, 2), (1, 2), (2, 0)], 2),
            (box_vertices([2, 2, 2]) + [(1, 1, 0)], 9),  # a cube's face centre
            ([(1, 1, 2)] + box_vertices([2, 2, 2]), 1),
        ],
    )
    def test_boundary_point_that_is_not_a_vertex(self, points, index):
        with pytest.raises(DegenerateVertexError) as err:
            polytope_combinatorics(points, allow_nonsimplicial=True)
        assert err.value.context == {"index": index}
        assert err.value.message.startswith(f"point {index} is not a vertex of the hull")
        with pytest.raises(NonSimplicialFacetError):
            polytope_combinatorics(points)

    def test_square_times_octahedron_adjacency(self, unit_square_vertices, octahedron_vertices):
        """d = 5: opposite corners of a square factor share the 4 facets
        square x (octahedron facet) through their octahedron vertex, d - 1 of
        them, but their smallest common face is the whole square. Vertex
        (s, o) is adjacent to (s', o) for the 2 neighbours s' of s and to
        (s, o') for the 4 neighbours o' of o."""
        square, octahedron = unit_square_vertices, octahedron_vertices
        P = polytope_combinatorics([s + o for s in square for o in octahedron], allow_nonsimplicial=True)
        assert len(P.facets) == 4 + 8
        assert all(len(neighbors) == 6 for neighbors in P.adjacency)
        for i in range(len(octahedron)):  # corners 0 and 2 of the square are opposite
            assert 12 + i not in P.adjacency[i] and i not in P.adjacency[12 + i]
        for a, (s, o) in enumerate(product(range(4), range(6))):
            square_side = {((s + 1) % 4, o), ((s - 1) % 4, o)}
            octahedron_side = {(s, p) for p in range(6) if p // 2 != o // 2}
            assert P.adjacency[a] == tuple(sorted(6 * t + p for t, p in square_side | octahedron_side))

    @pytest.mark.parametrize("d", [5, 6])
    def test_cube(self, d):
        P = polytope_combinatorics(box_vertices([1] * d), allow_nonsimplicial=True)
        assert len(P.facets) == 2 * d and all(len(facet) == 2 ** (d - 1) for facet in P.facets)
        for i, neighbors in enumerate(P.adjacency):
            assert neighbors == tuple(j for j in range(2**d) if (i ^ j).bit_count() == 1)

    def test_builds_no_cone(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Cone was built")

        monkeypatch.setattr(Cone, "__post_init__", refuse)
        P = polytope_combinatorics(box_vertices([2, Fraction(3, 2), 5, Fraction(7, 3)]), allow_nonsimplicial=True)
        assert len(P.facets) == 8


def reference_combinatorics(points, allow_nonsimplicial):
    """Independent oracle for the facet search: each d-subset's hyperplane
    normal as the generalized cross product of vertex differences, and each
    other point's side as a dot product with it. A point is a vertex when
    no other point lies on every facet through it, and two vertices are
    adjacent when no third point lies on every facet through both. Returns
    ("ok", facets, adjacency) or the error code and context the search
    should raise."""
    d = len(points[0])
    facets = set()
    for subset in combinations(range(len(points)), d):
        base = points[subset[0]]
        normal = generalized_cross([vec_sub(points[i], base) for i in subset[1:]], d)
        if is_zero_vector(normal):
            continue
        sides = {j: dot(normal, vec_sub(p, base)) for j, p in enumerate(points) if j not in subset}
        if min(sides.values()) < 0 < max(sides.values()):
            continue
        facet = tuple(sorted(subset + tuple(j for j, side in sides.items() if side == 0)))
        if len(facet) > d and not allow_nonsimplicial:
            return "NonSimplicialFacet", {"facet": tuple(i + 1 for i in facet)}
        facets.add(facet)
    facets = sorted(facets)

    def smallest_face(members):
        """The points on every facet through all of ``members``."""
        face = set(range(len(points)))
        for facet in facets:
            if set(members) <= set(facet):
                face &= set(facet)
        return face

    for i in range(len(points)):
        if not any(i in facet for facet in facets) or smallest_face([i]) != {i}:
            return "DegenerateVertex", {"index": i + 1}
    adjacency = tuple(
        tuple(j for j in range(len(points)) if j != i and smallest_face([i, j]) == {i, j})
        for i in range(len(points))
    )
    return "ok", tuple(facets), adjacency


def combinatorics_outcome(points, allow_nonsimplicial):
    try:
        P = polytope_combinatorics(points, allow_nonsimplicial=allow_nonsimplicial)
    except ConeFourierError as err:
        return err.code, err.context
    return "ok", P.facets, P.adjacency


def sphere_points(rng, d, count):
    """Rational points on the unit sphere by inverse stereographic
    projection, so each is a vertex of their hull."""
    points = set()
    while len(points) < count:
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d - 1)]
        norm = sum(c * c for c in u)
        points.add(tuple(2 * c / (norm + 1) for c in u) + ((norm - 1) / (norm + 1),))
    return sorted(points)


def moment_curve(ts, d):
    return [tuple(Fraction(t) ** k for k in range(1, d + 1)) for t in ts]


class TestFacetSearch:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_cross_product_oracle(self, d, seed):
        rng = random.Random(seed)
        sides = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)]
        sphere = sphere_points(rng, d, d + 3)
        centroid = tuple(sum(c) / len(sphere) for c in zip(*sphere))
        grid = sorted({tuple(Fraction(rng.randint(0, 2)) for _ in range(d)) for _ in range(d + 4)})
        cases = [
            (sphere, False),
            (sphere + [centroid], False),
            (moment_curve(sorted(rng.sample(range(-5, 6), d + 3)), d), False),
            (box_vertices(sides), True),
            (box_vertices(sides), False),
            (grid, False),
            (grid, True),
        ]
        outcomes = []
        for points, allow in cases:
            want = reference_combinatorics([tuple(map(Fraction, p)) for p in points], allow)
            assert combinatorics_outcome(points, allow) == want
            outcomes.append(want[0])
        # a rectangle's edges are simplicial; a box's facets are not from d = 3
        assert outcomes[:5] == ["ok", "DegenerateVertex", "ok", "ok", "ok" if d == 2 else "NonSimplicialFacet"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_oracle_in_dimensions_1_to_5(self, d, seed):
        """Rational points with interior points and boundary points that are
        not vertices, with and without the flag. A mid-edge point, inserted
        at a random position, is a DegenerateVertex with the flag and makes a
        facet non-simplicial without it."""
        rng = random.Random(10 * d + seed)
        rational = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))  # noqa: E731
        scattered = list(dict.fromkeys(tuple(rational() for _ in range(d)) for _ in range(d + 5)))
        grid = sorted({tuple(Fraction(rng.randint(0, 2)) for _ in range(d)) for _ in range(d + 4)})
        hull = sphere_points(rng, d, d + 3) if d > 1 else [(rational(),), (rational() + 7,)]
        centroid = tuple(sum(c) / len(hull) for c in zip(*hull))
        _, _, adjacency = reference_combinatorics(hull, True)
        i = rng.randrange(len(hull))
        j = rng.choice(adjacency[i])
        mid_edge = list(hull)
        mid_edge.insert(rng.randint(0, len(hull)), tuple((a + b) / 2 for a, b in zip(hull[i], hull[j])))
        cases = [scattered, grid, hull, hull + [centroid], mid_edge]
        if d <= 4:
            cases.append(box_vertices([rational() + 4 for _ in range(d)]))
        outcomes = []
        for points in cases:
            for allow in (False, True):
                want = reference_combinatorics(points, allow)
                assert combinatorics_outcome(points, allow) == want
                outcomes.append(want[0])
        assert outcomes[4:8] == ["ok", "ok", "DegenerateVertex", "DegenerateVertex"]
        assert outcomes[8:10] == (["DegenerateVertex"] * 2 if d == 1 else ["NonSimplicialFacet", "DegenerateVertex"])

    def test_rational_4_box(self):
        """The rational 4-box: 8 facets of 8 vertices each, every one the
        vertices with one coordinate at 0 or at its side."""
        sides = (Fraction(2), Fraction(3, 2), Fraction(5), Fraction(7, 3))
        P = polytope_combinatorics(box_vertices(sides), allow_nonsimplicial=True)
        assert len(P.facets) == 8 and all(len(facet) == 8 for facet in P.facets)
        for axis in range(4):
            for side in (0, sides[axis]):
                facet = tuple(i for i, v in enumerate(P.vertices) if v[axis] == side)
                assert facet in P.facets

    @pytest.mark.parametrize("n", range(4, 13))
    def test_cyclic_polytope_facet_count_d3(self, n):
        P = polytope_combinatorics(moment_curve(range(-(n // 2), n - n // 2), 3))
        assert len(P.facets) == 2 * n - 4

    @pytest.mark.parametrize("n", range(5, 10))
    def test_cyclic_polytope_facet_count_d4(self, n):
        P = polytope_combinatorics(moment_curve(range(-(n // 2), n - n // 2), 4))
        assert len(P.facets) == n * (n - 3) // 2

    def test_segment(self):
        P = polytope_combinatorics([(3,), (Fraction(-1, 2),)])
        assert P.facets == ((0,), (1,))
        assert P.adjacency == ((1,), (0,))
        with pytest.raises(DegenerateVertexError) as err:
            polytope_combinatorics([(0,), (2,), (1,)])
        assert err.value.context == {"index": 3}

    @pytest.mark.parametrize("points", [[(1,)], [(0, 0), (1, 2)], [(0, 0, 0), (1, 0, 0), (0, 1, 0)]])
    def test_too_few_points_not_full_dimensional(self, points):
        with pytest.raises(NotFullDimensionalError) as err:
            polytope_combinatorics(points)
        assert err.value.message == f"vertices span less than dimension {len(points[0])}"

    def test_zero_dimensional_points_rejected(self):
        with pytest.raises(DimensionError):
            polytope_combinatorics([()])

    def test_no_points_rejected(self):
        with pytest.raises(NotFullDimensionalError) as err:
            polytope_combinatorics([])
        assert (err.value.message, err.value.context) == ("no vertices given", {})


class TestTangentCones:
    def test_square_corner_origin(self, unit_square_vertices):
        P = polytope_combinatorics(unit_square_vertices)
        cone = tangent_cone(P, 0)
        assert cone.apex == (0, 0)
        assert set(cone.generators) == {(1, 0), (0, 1)}

    def test_square_corner_far(self, unit_square_vertices):
        P = polytope_combinatorics(unit_square_vertices)
        cone = tangent_cone(P, 2)
        assert cone.apex == (1, 1)
        assert set(cone.generators) == {(-1, 0), (0, -1)}

    def test_octahedron_top(self, octahedron_vertices):
        P = polytope_combinatorics(octahedron_vertices)
        cone = tangent_cone(P, 4)
        assert cone.apex == (0, 0, 1)
        assert set(cone.generators) == {(1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)}


class TestTransforms:
    def test_unit_square_numerators(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        assert len(T.terms) == 4
        assert all(term.numerator.coefficients == (1,) for term in T.terms)

    def test_octahedron_numerators(self, octahedron_vertices):
        T = polytope_transform(polytope_combinatorics(octahedron_vertices))
        assert len(T.terms) == 6
        assert all(term.numerator.degree == 1 for term in T.terms)

    def test_simplex_terms(self):
        T = polytope_transform(polytope_combinatorics([(0, 0), (1, 0), (0, 1)]))
        assert len(T.terms) == 3
        assert all(term.numerator.degree == 0 for term in T.terms)

    def test_methods_agree_term_by_term(self, octahedron_vertices):
        P = polytope_combinatorics(octahedron_vertices)
        by_tri = polytope_transform(P, "triangulation")
        by_interp = polytope_transform(P, "interpolation")
        for a, b in zip(by_tri.terms, by_interp.terms):
            assert a.numerator == b.numerator and a.generators == b.generators


class TestIndexChecks:
    @pytest.mark.parametrize("vertex", [4, -1])
    def test_vertex_out_of_range(self, unit_square_vertices, vertex):
        with pytest.raises(DimensionError) as err:
            tangent_cone(polytope_combinatorics(unit_square_vertices), vertex)
        assert (err.value.message, err.value.context) == (f"vertex index {vertex} out of range", {})

    def test_unknown_method(self, unit_square_vertices):
        with pytest.raises(DimensionError) as err:
            polytope_transform(polytope_combinatorics(unit_square_vertices), method="brion")
        message = "unknown method 'brion'; expected one of ('triangulation', 'interpolation')"
        assert (err.value.message, err.value.context) == (message, {})

    def test_term_of_another_dimension(self, unit_square_vertices):
        """The point is checked against the first term; a later term of
        another dimension is refused before any of its linear forms is read."""
        square = polytope_transform(polytope_combinatorics(unit_square_vertices))
        solid = ConicTransform((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), HomogeneousPolynomial.constant(3, 1))
        with pytest.raises(DimensionError) as err:
            evaluate_transform(PolytopeTransform((*square.terms, solid)), (Fraction(1, 2), Fraction(1, 3)))
        assert (err.value.message, err.value.context) == ("a term in dimension 3 at a point of length 2", {})


class TestEvaluation:
    def test_square_spot_value(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        value = evaluate_transform(T, (Fraction(1, 2), Fraction(1, 2)))
        assert abs(value - (-4 / math.pi**2)) <= 1e-9

    def test_square_integer_point_vanishes(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        assert abs(evaluate_transform(T, (1, 1))) <= 1e-9

    @pytest.mark.parametrize("xi", [(Fraction(1, 3),), (1, 2, 3)])
    def test_point_of_wrong_length_rejected(self, unit_square_vertices, xi):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        for evaluate in (evaluate_transform, per_term_values):
            with pytest.raises(DimensionError) as exc:
                evaluate(T, xi)
            assert exc.value.context == {"dimension": 2, "length": len(xi)}

    def test_singular_point_rejected(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        with pytest.raises(SingularEvaluationPointError):
            evaluate_transform(T, (0, Fraction(1, 3)))

    def test_unit_square_closed_form(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        rng = random.Random(2)
        for _ in range(25):
            xi = sample_box_point(rng, [1, 1])
            got = evaluate_transform(T, xi)
            want = box_closed_form([1, 1], xi)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_random_3d_box_closed_form(self):
        rng = random.Random(3)
        sides = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3)]
        P = polytope_combinatorics(box_vertices(sides), allow_nonsimplicial=True)
        T = polytope_transform(P)
        for _ in range(15):
            xi = sample_box_point(rng, sides)
            got = evaluate_transform(T, xi)
            want = box_closed_form(sides, xi)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_5_cube_closed_form(self):
        """The product of five interval transforms, written out here apart
        from ``box_closed_form``."""
        T = polytope_transform(polytope_combinatorics(box_vertices([1] * 5), allow_nonsimplicial=True))
        rng = random.Random(6)
        for _ in range(5):
            xi = sample_box_point(rng, [1] * 5)
            want = math.prod((cmath.exp(2j * math.pi * float(x)) - 1) / (2j * math.pi * float(x)) for x in xi)
            assert abs(evaluate_transform(T, xi) - want) <= 1e-9 * abs(want)

    def test_per_term_values_rejects_singular_point_alike(self, unit_square_vertices):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        contexts = []
        for evaluate in (evaluate_transform, per_term_values):
            with pytest.raises(SingularEvaluationPointError) as err:
                evaluate(T, (Fraction(1, 3), 0))
            contexts.append(err.value.context)
        assert contexts[0] == contexts[1] == {"vertex": ("0", "0"), "generator": ("0", "1")}

    def test_per_term_values_sum(self, octahedron_vertices):
        T = polytope_transform(polytope_combinatorics(octahedron_vertices))
        xi = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))
        assert abs(sum(per_term_values(T, xi)) - evaluate_transform(T, xi)) <= 1e-12

    def test_translation_covariance(self, octahedron_vertices):
        P = polytope_combinatorics(octahedron_vertices)
        T = polytope_transform(P)
        rng = random.Random(4)
        shift = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))
        moved = polytope_combinatorics(
            [tuple(a + b for a, b in zip(v, shift)) for v in octahedron_vertices]
        )
        T_moved = polytope_transform(moved)
        gens = [g for term in T.terms for g in term.generators]
        for _ in range(10):
            xi = nonsingular_point(rng, gens, 3)
            phase = cmath.exp(2j * math.pi * float(sum(a * b for a, b in zip(shift, xi))))
            lhs = evaluate_transform(T_moved, xi)
            rhs = phase * evaluate_transform(T, xi)
            # absolute bound at the transform's zeros, relative elsewhere
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_conjugate_symmetry(self, octahedron_vertices):
        T = polytope_transform(polytope_combinatorics(octahedron_vertices))
        rng = random.Random(5)
        gens = [g for term in T.terms for g in term.generators]
        for _ in range(10):
            xi = nonsingular_point(rng, gens, 3)
            minus = tuple(-x for x in xi)
            lhs = evaluate_transform(T, minus)
            rhs = evaluate_transform(T, xi).conjugate()
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def reference_terms(transform, xi):
    """The Fraction evaluation, written apart from the program: each term's
    p(xi) / prod <w, xi> as a Fraction, then float, times the phase."""
    point = tuple(map(Fraction, xi))
    out = []
    for term in transform.terms:
        ratio = term.numerator.evaluate(point) / math.prod(dot(w, point) for w in term.generators)
        out.append(float(ratio) * cmath.exp(2j * math.pi * float(dot(term.apex, point))))
    return out


def assert_matches_reference(transform, xi):
    """evaluate_transform and per_term_values give the reference's doubles,
    signs of zero included."""
    terms = reference_terms(transform, xi)
    scale = (-2j * math.pi) ** len(xi)
    assert repr(evaluate_transform(transform, xi)) == repr(sum(terms, 0j) / scale)
    assert list(map(repr, per_term_values(transform, xi))) == [repr(value / scale) for value in terms]


class TestIntegerEvaluation:
    """Evaluation runs on the terms' integer forms; every double must be
    the one the Fraction formula gives."""

    @staticmethod
    def polytopes(rng):
        for d in (3, 4):
            yield moment_curve(sorted(rng.sample(range(-9, 10), d + 3)), d), False
        yield box_vertices([Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]), True
        axes = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(3)]
        yield [tuple(s * a if k == i else 0 for k in range(3)) for i, a in enumerate(axes) for s in (1, -1)], False

    @pytest.mark.parametrize("method", ["triangulation", "interpolation"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_fraction_formula(self, method, seed):
        """Points with denominators up to 10^12; a draw on a generator
        hyperplane is drawn again."""
        rng = random.Random(seed)
        for vertices, allow in self.polytopes(rng):
            T = polytope_transform(polytope_combinatorics(vertices, allow_nonsimplicial=allow), method)
            gens = [g for term in T.terms for g in term.generators]
            for exponent in (0, 3, 6, 12):
                for _ in range(3):
                    while True:
                        den = rng.randint(1, 10**exponent)
                        xi = tuple(Fraction(rng.randint(-9 * den, 9 * den), rng.randint(1, den)) for _ in vertices[0])
                        if all(dot(g, xi) for g in gens):
                            break
                    assert_matches_reference(T, xi)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_unit_cube_near_the_origin(self, k):
        """The points of the ROADMAP's precision table: their values, poor as
        they are at large k, are unchanged."""
        T = polytope_transform(polytope_combinatorics(box_vertices([1, 1, 1]), allow_nonsimplicial=True))
        assert_matches_reference(T, tuple(Fraction(c, 10**k) for c in (1, 2, 3)))

    def test_singular_point_context(self):
        sides = [Fraction(3, 2), Fraction(5, 7)]
        T = polytope_transform(polytope_combinatorics(box_vertices(sides)))
        for evaluate in (evaluate_transform, per_term_values):
            with pytest.raises(SingularEvaluationPointError) as err:
                evaluate(T, (Fraction(1, 3), 0))
            assert err.value.context == {"vertex": ("0", "0"), "generator": ("0", "5/7")}

    @pytest.mark.parametrize(
        "xi, vertex",
        [
            ((Fraction(1, 10**200), Fraction(2, 10**200)), ("0", "0")),  # the first ratio is about 10^400
            ((10**400, 3), ("1", "0")),  # the ratios underflow to 0, the phase <v, xi> at (1, 0) overflows
        ],
    )
    def test_float_overflow_names_the_vertex(self, unit_square_vertices, xi, vertex):
        T = polytope_transform(polytope_combinatorics(unit_square_vertices))
        for evaluate in (evaluate_transform, per_term_values):
            with pytest.raises(FloatOverflowError) as err:
                evaluate(T, xi)
            assert err.value.code == "FloatOverflow"
            assert err.value.context == {"vertex": vertex}

    def test_hand_built_term_with_int_generators(self):
        """The quadrant: degree-0 numerator 1, int generators and apex."""
        term = ConicTransform((1, 2), ((1, 0), (0, 1)), HomogeneousPolynomial.constant(2, 1))
        T = PolytopeTransform((term,))
        xi = (Fraction(1, 3), Fraction(-2, 7))
        assert_matches_reference(T, xi)
        expected = cmath.exp(2j * math.pi * (1 / 3 - 4 / 7)) / ((1 / 3) * (-2 / 7)) / (-2j * math.pi) ** 2
        assert abs(evaluate_transform(T, xi) - expected) <= 1e-12 * abs(expected)

    def test_float_generator_is_refused(self):
        term = ConicTransform((0, 0), ((1.5, 0), (0, 1)), HomogeneousPolynomial.constant(2, 1))
        with pytest.raises(TypeError):
            evaluate_transform(PolytopeTransform((term,)), (Fraction(1, 3), Fraction(1, 5)))

    def test_numerator_must_fit_the_generators(self):
        term = ConicTransform((0, 0), ((1, 0), (0, 1)), HomogeneousPolynomial(2, 1, (1, 1)))
        with pytest.raises(DimensionError):
            evaluate_transform(PolytopeTransform((term,)), (Fraction(1, 3), Fraction(1, 5)))

    def test_integer_form_is_not_a_field(self, octahedron_vertices):
        P = polytope_combinatorics(octahedron_vertices)
        T, fresh = polytope_transform(P), polytope_transform(P)
        evaluate_transform(T, (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)))
        assert "integer_form" in vars(T.terms[0]) and "integer_form" not in vars(fresh.terms[0])
        assert T == fresh and hash(T) == hash(fresh) and repr(T) == repr(fresh)
