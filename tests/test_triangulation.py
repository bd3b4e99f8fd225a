import random
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import assume, given, reject, strategies as st

from conefourier import (
    Cone,
    DiagonalKind,
    classify_diagonal,
    enumerate_diagonals,
    expand_linear_forms,
    pk_via_triangulation,
    pulling_triangulation,
    simplicial_transform,
)
from conefourier import triangulation
from conefourier.cones import is_general_position
from conefourier.errors import DimensionError, DuplicateRayError, NotGenericError, SingularSimplexError, ZeroGeneratorError
from conefourier.geometry import basis_size, determinant, dot, monomial_basis
from conefourier.sampling import sample_cone

from conftest import random_cones, rational_cone, rationals, vectors


def times_linear(coefficients, form, degree):
    """The coefficients of a degree-``degree`` polynomial times <form, xi>,
    one coefficient and variable at a time: the per-simplex expansion that
    the batched columns replaced, kept as the reference."""
    dimension = len(form)
    position = {e: k for k, e in enumerate(monomial_basis(dimension, degree + 1))}
    out = [0] * basis_size(dimension, degree + 1)
    for exponents, coeff in zip(monomial_basis(dimension, degree), coefficients):
        for k, f in enumerate(form):
            out[position[exponents[:k] + (exponents[k] + 1,) + exponents[k + 1 :]]] += coeff * f
    return out


def reference_pk(cone, anchor):
    """sum of |det S| prod(<w_j, xi>, j not in S) over the pulling
    triangulation, simplex by simplex on the rational generators, with
    each volume a ``determinant`` of its rows rather than a table read."""
    d, n = cone.dimension, cone.num_generators
    total = [0] * basis_size(d, n - d)
    for simplex in pulling_triangulation(cone, anchor).simplices:
        coefficients = [abs(determinant([cone.generators[i] for i in simplex]))]
        for degree, j in enumerate(j for j in range(n) if j not in simplex):
            coefficients = times_linear(coefficients, cone.generators[j], degree)
        total = [a + b for a, b in zip(total, coefficients)]
    return tuple(total)


def test_fan_triangulation(fan_cone):
    assert pulling_triangulation(fan_cone).simplices == ((0, 2),)


def test_square_cone_triangulation(square_cone):
    assert pulling_triangulation(square_cone).simplices == ((0, 1, 2), (0, 2, 3))


def test_simplicial_cone_triangulation():
    cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert pulling_triangulation(cone).simplices == ((0, 1, 2),)


def test_triangulation_rejects_non_generic():
    cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    with pytest.raises(NotGenericError):
        pulling_triangulation(cone)


def test_simplicial_transform_unit():
    cone = Cone((0, 0), ((1, 0), (0, 1)))
    t = simplicial_transform(cone, (0, 1))
    assert t.numerator.degree == 0 and t.numerator.coefficients == (1,)


def test_simplicial_transform_square_piece(square_cone):
    t = simplicial_transform(square_cone, (0, 1, 2))
    assert t.numerator.coefficients == (2,)
    assert t.generators == square_cone.generators[:3]


def test_simplicial_transform_diagonal_matrix():
    cone = Cone((0, 0), ((2, 0), (0, 3)))
    assert simplicial_transform(cone, (0, 1)).numerator.coefficients == (6,)


def test_simplicial_transform_rejects_singular():
    cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
    with pytest.raises(SingularSimplexError):
        simplicial_transform(cone, (0, 1, 2))


def test_expand_empty_product():
    poly = expand_linear_forms([], 2)
    assert poly.degree == 0 and poly.coefficients == (1,)


def test_expand_single_form():
    assert expand_linear_forms([(1, 1)], 2).coefficients == (1, 1)


def test_expand_two_forms():
    # x * y
    assert expand_linear_forms([(1, 0), (0, 1)], 2).coefficients == (0, 1, 0)


@pytest.mark.parametrize("block", [1, 2, 128])
@given(data=st.data())
def test_pk_matches_the_per_simplex_expansion(block, data):
    """Coefficient for coefficient, whatever the block size: integer and
    rational cones, anchors 0 and n - 1, and n = d, a constant simplex."""
    d = data.draw(st.sampled_from((2, 3, 4)), label="d")
    n = d + data.draw(st.sampled_from((0, 1, 2, 3)), label="n - d")
    rng = random.Random(data.draw(st.integers(0, 10**9), label="seed"))
    try:
        cone = (rational_cone if data.draw(st.booleans(), label="rational") else sample_cone)(rng, d, n)
    except DuplicateRayError:  # a moved rational generator can land on another's ray
        reject()
    assume(is_general_position(cone))
    anchor = data.draw(st.sampled_from((0, n - 1)), label="anchor")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triangulation, "_BLOCK", block)
        poly = pk_via_triangulation(cone, anchor)
    assert poly.coefficients == reference_pk(cone, anchor)


@given(data=st.data())
def test_expand_linear_forms_against_evaluation(data):
    """Rational and integer forms, the empty product included, against the
    product of the forms' values at random rational points and against the
    per-form reference expansion."""
    d = data.draw(st.integers(1, 4), label="d")
    entries = st.one_of(rationals, st.integers(-9, 9))
    forms = data.draw(st.lists(st.tuples(*[entries] * d), max_size=4), label="forms")
    poly = expand_linear_forms(forms, d)
    coefficients = [1]
    for degree, form in enumerate(forms):
        coefficients = times_linear(coefficients, form, degree)
    assert (poly.dimension, poly.degree, poly.coefficients) == (d, len(forms), tuple(coefficients))
    for point in data.draw(st.lists(vectors(d), min_size=1, max_size=3), label="points"):
        assert poly.evaluate(point) == prod(sum(map(mul, form, point)) for form in forms)


@given(data=st.data())
def test_expand_linear_forms_rejects_a_form_of_the_wrong_length(data):
    d = data.draw(st.integers(1, 4), label="d")
    forms = data.draw(st.lists(vectors(d), max_size=3), label="forms")
    wrong = data.draw(vectors(data.draw(st.integers(0, 5).filter(lambda k: k != d))), label="wrong")
    forms.insert(data.draw(st.integers(0, len(forms)), label="at"), wrong)
    with pytest.raises(DimensionError) as err:
        expand_linear_forms(forms, d)
    assert err.value.message == "linear form has the wrong number of variables"


def test_pk_fan(fan_cone):
    assert pk_via_triangulation(fan_cone).coefficients == (1, 1)


def test_pk_square_cone(square_cone):
    assert pk_via_triangulation(square_cone).coefficients == (0, 0, 4)


def test_pk_simplicial_is_determinant():
    cone = Cone((0, 0, 0), ((2, 0, 0), (0, 3, 0), (0, 1, 1)))
    poly = pk_via_triangulation(cone)
    assert poly.degree == 0
    assert poly.coefficients == (abs(determinant(cone.generators)),)


def test_square_cone_anchor_independence(square_cone):
    polys = {pk_via_triangulation(square_cone, anchor=a) for a in range(4)}
    assert len(polys) == 1


@given(cone=random_cones(dims=(2, 3), extras=(1, 2, 3)), data=st.data())
def test_anchor_independence(cone, data):
    anchor = data.draw(st.integers(0, cone.num_generators - 1))
    assert pk_via_triangulation(cone, anchor=anchor) == pk_via_triangulation(cone)


@given(cone=random_cones(dims=(2, 3), extras=(1, 2)), data=st.data())
def test_total_volume_anchor_independent_on_section(cone, data):
    # Sum of |det(S)| is additive only when the generators sit on a common
    # transverse hyperplane (it then measures the section polytope); with
    # mixed ray lengths the sums genuinely differ between anchors.
    anchor = data.draw(st.integers(0, cone.num_generators - 1))
    section = Cone(cone.apex, tuple(tuple(c / g[-1] for c in g) for g in cone.generators))

    def total(a):
        return sum(
            abs(determinant([section.generators[i] for i in simplex]))
            for simplex in pulling_triangulation(section, anchor=a).simplices
        )

    assert total(anchor) == total(0)


@given(cone=random_cones(dims=(2, 3), extras=(1, 2)))
def test_pk_at_interior_duals_vanishes(cone):
    poly = pk_via_triangulation(cone)
    for diagonal in enumerate_diagonals(cone):
        if classify_diagonal(cone, diagonal).kind is DiagonalKind.INTERIOR:
            assert poly.evaluate(diagonal.dual) == 0


@given(cone=random_cones(dims=(2, 3), extras=(0, 1, 2)))
def test_pk_at_extremal_duals_is_determinant_product(cone):
    poly = pk_via_triangulation(cone)
    for diagonal in enumerate_diagonals(cone):
        cls = classify_diagonal(cone, diagonal)
        if cls.kind is not DiagonalKind.EXTREMAL:
            continue
        product = Fraction(1)
        for j, w in enumerate(cone.generators):
            if j not in diagonal.indices:
                product *= dot(diagonal.dual, w)
        assert poly.evaluate(diagonal.dual) == cls.sign * product


def classified_triangulation(cone, anchor):
    """{anchor} joined to each extremal diagonal that avoids it, in
    ``combinations`` order: the facets of a cone in general position found
    by classifying every diagonal, apart from the double description."""
    return tuple(
        tuple(sorted(diagonal.indices + (anchor,)))
        for diagonal in enumerate_diagonals(cone)
        if anchor not in diagonal.indices and classify_diagonal(cone, diagonal).kind is DiagonalKind.EXTREMAL
    )


@st.composite
def general_position_cones(draw):
    """Cones in general position in d = 1..5, on small integer or rational
    generators, pointed or all of R^d."""
    d = draw(st.integers(1, 5), label="d")
    entry = draw(st.sampled_from([st.integers(-4, 4), rationals]))
    generators = [tuple(draw(entry) for _ in range(d)) for _ in range(d + draw(st.integers(0, 4)))]
    try:
        cone = Cone((0,) * d, generators)
    except (ZeroGeneratorError, DuplicateRayError):
        reject()
    assume(is_general_position(cone))
    return cone


@given(cone=general_position_cones())
def test_triangulation_cones_over_the_extremal_diagonals(cone):
    for anchor in range(cone.num_generators):
        assert pulling_triangulation(cone, anchor).simplices == classified_triangulation(cone, anchor)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_a_cone_that_is_all_of_space_has_no_simplices(d):
    """The unit vectors and minus their sum: in general position, and a
    positive combination of them is 0, so the cone is all of R^d and has
    no facet and no extremal diagonal."""
    generators = [tuple(int(i == k) for i in range(d)) for k in range(d)] + [(-1,) * d]
    cone = Cone((0,) * d, generators)
    assert is_general_position(cone)
    for anchor in range(d + 1):
        assert pulling_triangulation(cone, anchor).simplices == () == classified_triangulation(cone, anchor)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cone: pulling_triangulation(cone, anchor=4), "anchor index 4 out of range"),
        (lambda cone: pulling_triangulation(cone, anchor=-1), "anchor index -1 out of range"),
        (lambda cone: simplicial_transform(cone, (0, 1)), "simplex needs 3 indices, got 2"),
        (lambda cone: expand_linear_forms([(1, 2, 3), (1, 2)], 3), "linear form has the wrong number of variables"),
    ],
)
def test_index_and_shape_checks(square_cone, call, message):
    with pytest.raises(DimensionError) as err:
        call(square_cone)
    assert (err.value.message, err.value.context) == (message, {})
