from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import given, strategies as st

from conefourier.errors import DimensionError
from conefourier.geometry import (
    _reduce_rows,
    determinant,
    dot,
    generalized_cross,
    maximal_minors,
    monomial_basis,
    vec_scale,
    veronese,
)

from conftest import nonzero_rationals, rationals, vectors


def permutation_determinant(rows):
    """Independent oracle: signed sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def test_determinant_identity():
    assert determinant([(1, 0), (0, 1)]) == 1


def test_determinant_hand_example():
    assert determinant([(1, 0, 1), (0, 1, 1), (-1, 0, 1)]) == 2


def test_determinant_repeated_row():
    assert determinant([(1, 1), (1, 1)]) == 0


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionError):
        determinant([(1, 2, 3), (4, 5, 6)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@given(data=st.data())
def test_determinant_matches_permutation_expansion(d, data):
    rows = [data.draw(vectors(d)) for _ in range(d)]
    assert determinant(rows) == permutation_determinant(rows)


ENTRIES = {
    "integer": st.integers(-9, 9),
    "rational": rationals,
    "large": st.integers(-(10**6), 10**6),
}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@given(data=st.data())
def test_bareiss_matches_permutation_expansion(kind, d, data):
    rows = [[data.draw(ENTRIES[kind]) for _ in range(d)] for _ in range(d)]
    if data.draw(st.booleans()):
        rows[0][0] = 0  # the first pivot needs a row swap
    if data.draw(st.booleans()):
        # a singular matrix: the last row a combination of the others
        weights = [data.draw(ENTRIES[kind]) for _ in range(d - 1)]
        rows[-1] = [sum(w * row[k] for w, row in zip(weights, rows[:-1])) for k in range(d)]
    det = determinant(rows)
    assert det == permutation_determinant(rows)
    assert (type(det) is int) == (kind != "rational")


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([(0, 1), (1, 0)], -1),
        ([(0, 0, 1), (0, 1, 0), (1, 0, 0)], -1),
        ([(0, 2, 3), (0, 4, 5), (1, 1, 1)], -2),
        # column 2 vanishes below the first pivot, so no second pivot exists
        ([(1, 2, 3), (2, 4, 7), (1, 2, 5)], 0),
        ([(0, Fraction(1, 2)), (Fraction(2, 3), 5)], Fraction(-1, 3)),
    ],
)
def test_determinant_zero_pivots(rows, expected):
    assert determinant(rows) == expected == permutation_determinant(rows)


def all_determinants(rows, d):
    """The oracle for ``maximal_minors``: one Bareiss determinant per sorted
    d-subset, rows in the subset's order, in ``combinations`` order."""
    return [determinant([rows[i] for i in subset]) for subset in combinations(range(len(rows)), d)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@given(data=st.data())
def test_maximal_minors_match_determinants(d, data):
    n = d + data.draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    rows = [[data.draw(entry) for _ in range(d)] for _ in range(n)]
    if data.draw(st.booleans()):
        column = data.draw(st.integers(0, d - 1))
        for row in rows:
            row[column] = 0
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    if n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = data.draw(st.integers(-5, 5))
        rows[j] = [factor * a for a in rows[i]]
    minors = maximal_minors(rows)
    assert minors == all_determinants(rows, d)
    assert all(type(value) is int for value in minors)


def test_maximal_minors_on_the_lifted_unit_cube():
    """The cone over the unit 4-cube: half of the lifted vertices' entries
    are 0, and 1,360 of the 4,368 minors, those of coplanar 5-subsets."""
    rows = [(1, *v) for v in product((0, 1), repeat=4)]
    minors = maximal_minors(rows)
    assert minors == all_determinants(rows, 5)
    assert len(minors) == 4368
    assert sum(1 for value in minors if not value) == 1360


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], [1]),
        ([(1, 2)], []),
        ([(0, 1), (1, 0)], [-1]),
        ([(3,), (0,), (-2,)], [3, 0, -2]),
        ([(0, 1), (1, 0), (1, 1)], [-1, -1, 1]),
    ],
)
def test_maximal_minors_keep_the_sorted_row_order(rows, expected):
    assert maximal_minors(rows) == expected


def test_maximal_minors_reject_ragged_rows():
    with pytest.raises(DimensionError):
        maximal_minors([(1, 2), (3,)])


def test_generalized_cross_2d():
    assert generalized_cross([(1, 0)]) == (0, 1)


def test_generalized_cross_basis_vectors():
    assert generalized_cross([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)


def test_generalized_cross_hand_example():
    assert generalized_cross([(1, 0, 1), (-1, 0, 1)]) == (0, -2, 0)


def test_generalized_cross_empty_needs_dimension():
    assert generalized_cross([], dimension=1) == (1,)
    with pytest.raises(DimensionError):
        generalized_cross([])


def test_generalized_cross_wrong_count():
    with pytest.raises(DimensionError):
        generalized_cross([(1, 0, 0)])


@pytest.mark.parametrize("d", [2, 3, 4])
@given(data=st.data())
def test_cross_defining_property(d, data):
    inputs = [data.draw(vectors(d)) for _ in range(d - 1)]
    probe = data.draw(vectors(d))
    cross = generalized_cross(inputs)
    assert dot(cross, probe) == determinant(inputs + [probe])
    for v in inputs:
        assert dot(cross, v) == 0


@pytest.mark.parametrize("d", [3, 4])
@given(data=st.data())
def test_cross_swap_antisymmetry(d, data):
    inputs = [data.draw(vectors(d)) for _ in range(d - 1)]
    swapped = [inputs[1], inputs[0]] + inputs[2:]
    assert generalized_cross(swapped) == tuple(-c for c in generalized_cross(inputs))


def test_cross_dependent_inputs_give_zero():
    assert generalized_cross([(1, 2, 3), (2, 4, 6)]) == (0, 0, 0)


def test_monomial_basis_degree_two():
    assert monomial_basis(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_monomial_basis_degree_zero():
    assert monomial_basis(4, 0) == ((0, 0, 0, 0),)


def test_monomial_basis_linear():
    assert monomial_basis(2, 1) == ((1, 0), (0, 1))


@pytest.mark.parametrize("d,s", [(2, 3), (3, 4), (4, 2), (5, 3)])
def test_monomial_basis_is_descending_and_complete(d, s):
    basis = monomial_basis(d, s)
    assert all(sum(e) == s for e in basis)
    assert list(basis) == sorted(basis, reverse=True)
    assert len(set(basis)) == len(basis)
    from math import comb

    assert len(basis) == comb(d + s - 1, d - 1)


def test_veronese_example():
    assert veronese((1, 2, 3), 2) == (1, 2, 3, 4, 6, 9)


def test_veronese_zero_vector():
    assert veronese((0, 0, 0), 2) == (0,) * 6


def test_veronese_dimension_one():
    assert veronese((3,), 4) == (81,)
    assert veronese((Fraction(-1, 2),), 3) == (Fraction(-1, 8),)


def test_veronese_degree_zero():
    assert veronese((3,), 0) == (1,)
    assert veronese((2, -5, 7), 0) == (1,)
    assert veronese((0, 0), 0) == (1,)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
def test_veronese_evaluates_the_monomial_basis(d, s):
    v = tuple(range(2, d + 2))
    expected = tuple(prod(c**e for c, e in zip(v, exponents)) for exponents in monomial_basis(d, s))
    assert veronese(v, s) == expected


def test_veronese_degree_one_is_identity():
    v = (Fraction(3, 2), Fraction(-1, 5))
    assert veronese(v, 1) == v


@pytest.mark.parametrize("d,s", [(2, 2), (3, 3), (4, 2)])
@given(data=st.data())
def test_veronese_homogeneity(d, s, data):
    v = data.draw(vectors(d))
    lam = data.draw(nonzero_rationals)
    assert veronese(vec_scale(lam, v), s) == tuple(lam**s * c for c in veronese(v, s))


def kept_rows(rows, width):
    """The rank: how many rows the exact row reduction keeps."""
    matrix = [[Fraction(a) for a in row] for row in rows]
    return sum(1 for lead, _, _ in _reduce_rows(matrix, width) if lead is not None)


def test_matrix_rank():
    assert kept_rows([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) == 2
    assert kept_rows([(1, 2), (2, 4)], 2) == 1
    assert kept_rows([], 2) == 0


def test_ragged_matrix_rejected():
    # the leading zero row must not end the reduction before the shape check
    for rows in ([(1, 2), (3,)], [(0, 0), (1,)]):
        with pytest.raises(DimensionError):
            determinant(rows)


def _combination(weights, rows, width):
    return tuple(sum((w * row[k] for w, row in zip(weights, rows)), Fraction(0)) for k in range(width))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@given(data=st.data())
def test_rank_agrees_with_determinant(d, data):
    rows = [data.draw(vectors(d)) for _ in range(d)]
    if data.draw(st.booleans()):
        # a dependent last row, so that singular matrices are drawn too
        rows[-1] = _combination([data.draw(rationals) for _ in range(d - 1)], rows[:-1], d)
    rank = kept_rows(rows, d)
    assert (rank == d) == (determinant(rows) != 0)
    extra = _combination([data.draw(rationals) for _ in rows], rows, d)
    assert kept_rows(rows + [extra], d) == rank
