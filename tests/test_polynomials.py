from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conefourier.errors import DimensionError, MalformedInputError
from conefourier.polynomials import HomogeneousPolynomial
from conefourier.serialize import polynomial_from_json, polynomial_to_json
from conefourier.triangulation import expand_linear_forms

from conftest import rationals, vectors


def test_constant_and_zero():
    one = HomogeneousPolynomial.constant(3, 1)
    assert one.degree == 0 and one.evaluate((5, 6, 7)) == 1
    zero = HomogeneousPolynomial.zero(2, 3)
    assert zero.coefficients == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "make, shape",
    [
        (lambda: HomogeneousPolynomial(2, -1, ()), (2, -1)),
        (lambda: HomogeneousPolynomial(0, 0, (1,)), (0, 0)),
        (lambda: HomogeneousPolynomial(-1, 2, ()), (-1, 2)),
        (lambda: HomogeneousPolynomial.zero(0, 1), (0, 1)),
        (lambda: HomogeneousPolynomial.constant(0, 1), (0, 0)),
        (lambda: expand_linear_forms([], 0), (0, 0)),
        (lambda: expand_linear_forms([()], 0), (0, 0)),
    ],
    ids=["negative-degree", "no-variables", "negative-dimension", "zero", "constant", "empty-product", "empty-form"],
)
def test_impossible_shapes_are_dimension_errors(make, shape):
    """No variables or a negative degree is no monomial basis, whether the
    coefficient count happens to match (``basis_size`` reads 0 at (2, -1))
    or ``math.comb`` would refuse it."""
    with pytest.raises(DimensionError) as err:
        make()
    assert (err.value.message, err.value.context) == (f"invalid monomial basis {shape}", {})


def test_coefficient_count_enforced():
    with pytest.raises(DimensionError):
        HomogeneousPolynomial(2, 2, (1, 2))


@pytest.mark.parametrize("point", [(1, 1), (1, 1, 1, 3), ()])
def test_evaluate_rejects_a_point_of_the_wrong_length(point):
    poly = HomogeneousPolynomial(3, 1, (1, 2, 3))
    assert poly.evaluate((1, 1, 1)) == 6
    with pytest.raises(DimensionError) as err:
        poly.evaluate(point)
    assert err.value.message == f"point of length {len(point)} for a polynomial in 3 variables"


def test_addition_requires_matching_shape():
    with pytest.raises(DimensionError):
        HomogeneousPolynomial.zero(2, 1) + HomogeneousPolynomial.zero(2, 2)


@given(data=st.data())
def test_evaluate_respects_linear_factors(data):
    forms = [data.draw(vectors(3)) for _ in range(data.draw(st.integers(0, 3)))]
    point = data.draw(vectors(3))
    poly = expand_linear_forms(forms, 3)
    expected = Fraction(1)
    for form in forms:
        expected *= sum(a * b for a, b in zip(form, point))
    assert poly.evaluate(point) == expected


@given(data=st.data())
def test_scale_commutes_with_evaluate(data):
    coeffs = [data.draw(rationals) for _ in range(3)]
    lam = data.draw(rationals)
    point = data.draw(vectors(3))
    poly = HomogeneousPolynomial(3, 1, tuple(coeffs))
    assert poly.scale(lam).evaluate(point) == lam * poly.evaluate(point)


def test_json_round_trip():
    poly = HomogeneousPolynomial(3, 2, (Fraction(1, 2), 0, 0, -3, 0, Fraction(7, 5)))
    data = polynomial_to_json(poly)
    assert data["dimension"] == 3 and data["degree"] == 2
    assert all(term["coefficient"] != "0" for term in data["terms"])
    assert polynomial_from_json(data) == poly


@pytest.mark.parametrize(
    "terms",
    [
        {"exponents": [1, 0], "coefficient": "1"},
        "terms",
        7,
        [["1", "0"]],
        [{"coefficient": "1"}],
        [{"exponents": [1, 0]}],
        [{"exponents": 3, "coefficient": "1"}],
        [{"exponents": [[1], 0], "coefficient": "1"}],
    ],
)
def test_polynomial_from_json_rejects_malformed_terms(terms):
    with pytest.raises(MalformedInputError):
        polynomial_from_json({"dimension": 2, "degree": 1, "terms": terms})


@pytest.mark.parametrize("dimension,degree", [(2.9, 1), (2, True), ("2", 1)])
def test_polynomial_from_json_rejects_non_integer_sizes(dimension, degree):
    with pytest.raises(MalformedInputError):
        polynomial_from_json({"dimension": dimension, "degree": degree, "terms": []})


@pytest.mark.parametrize("dimension,degree", [(0, 1), (-1, 0), (2, -1)])
def test_polynomial_from_json_rejects_impossible_sizes(dimension, degree):
    with pytest.raises(MalformedInputError):
        polynomial_from_json({"dimension": dimension, "degree": degree, "terms": []})


def test_polynomial_from_json_in_many_variables():
    """The monomial basis is built without recursing once per variable."""
    poly = polynomial_from_json({"dimension": 3000, "degree": 0, "terms": []})
    assert poly == HomogeneousPolynomial.zero(3000, 0)


def test_equality_is_exact():
    a = HomogeneousPolynomial(2, 1, (Fraction(1, 3), 1))
    b = HomogeneousPolynomial(2, 1, (Fraction(2, 6), 1))
    assert a == b


def test_addition_adds_coefficients():
    total = HomogeneousPolynomial(2, 1, (Fraction(1, 2), 3)) + HomogeneousPolynomial(2, 1, (Fraction(1, 3), -3))
    assert total == HomogeneousPolynomial(2, 1, (Fraction(5, 6), 0))


@pytest.mark.parametrize(
    "data, message",
    [
        ([2, 1, []], "polynomial input must be a JSON object"),
        ({"dimension": 2, "degree": 1}, "bad polynomial object: 'terms'"),
        (
            {"dimension": 2, "degree": 1, "terms": [{"exponents": [2, 0], "coefficient": "1"}]},
            "exponents (2, 0) do not match degree 1",
        ),
    ],
)
def test_polynomial_from_json_rejects_the_object(data, message):
    with pytest.raises(MalformedInputError) as err:
        polynomial_from_json(data)
    assert (err.value.message, err.value.context) == (message, {})
