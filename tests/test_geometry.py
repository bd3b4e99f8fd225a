from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod

import pytest
from hypothesis import given, strategies as st

from conefourier import vervan
from conefourier.cones import Cone, diagonal_for
from conefourier.errors import DimensionError
from conefourier.geometry import (
    _adjugate,
    _echelon,
    _integer_rows,
    _pairing_table,
    determinant,
    dot,
    generalized_cross,
    maximal_minors,
    monomial_basis,
    vec_sub,
    veronese,
    veronese_columns,
)

from conftest import nonzero_rationals, rational_reduction, rationals, vectors


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
    """The oracle for ``maximal_minors``: one ``determinant`` per sorted
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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
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


def test_cross_types_follow_veronese():
    """All-int input gives ints, any other input Fractions in every
    coordinate, zeros included; floats are refused."""
    assert [type(c) for c in generalized_cross([(1, 2, 3), (4, 5, 6)])] == [int] * 3
    assert [type(c) for c in generalized_cross([], 1)] == [int]
    mixed = generalized_cross([[Fraction(0), 1, 2], [3, 4, 5]])
    assert mixed == (-3, 6, -3) and [type(c) for c in mixed] == [Fraction] * 3
    units = generalized_cross([[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]])
    assert units == (0, 0, 1) and [type(c) for c in units] == [Fraction] * 3
    with pytest.raises(TypeError):
        generalized_cross([(1.0, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize(
    "vectors, expected",
    [
        # the minor without the last column is zero
        ([[Fraction(1, 2), 1, 0], [0, 0, Fraction(2, 3)]], (Fraction(2, 3), Fraction(-1, 3), 0)),
        ([[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]], (2, -1, 0)),
        # dependent vectors: every minor is zero
        ([[Fraction(1, 3), Fraction(2, 3), 1], [1, 2, 3]], (0, 0, 0)),
    ],
)
def test_cross_of_fractions_with_zero_minors(vectors, expected):
    """Fraction input is scaled to integers, eliminated in int and divided
    by the product of the scales: the values are the rational cross product's,
    a Fraction in every coordinate, zeros included."""
    cross = generalized_cross(vectors)
    assert cross == expected
    assert [type(c) for c in cross] == [Fraction] * 3
    probe = (Fraction(1, 5), 7, Fraction(-2, 9))
    assert dot(cross, probe) == permutation_determinant([*vectors, probe])


def test_integer_rows_of_ints_are_the_rows_themselves():
    rows = [[1, -2, 0], [3, 4, 5]]
    integer, scales = _integer_rows(rows)
    assert integer is rows and scales is None
    assert _integer_rows([]) == ([], None)


def test_integer_rows_scale_each_row_by_its_own_lcm():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [4, -5], [Fraction(-3, 4), 1], [Fraction(6), 0]]
    assert _integer_rows(rows) == ([[3, 2], [4, -5], [-3, 4], [6, 0]], (6, 1, 4, 1))


def test_integer_rows_scale_bools_to_0_and_1():
    integer, scales = _integer_rows([[True, False], [2, 3]])
    assert (integer, scales) == ([[1, 0], [2, 3]], (1, 1))
    assert [type(a) for row in integer for a in row] == [int] * 4


def test_integer_rows_refuse_floats():
    with pytest.raises(TypeError):
        _integer_rows([[1, 2], [0.5, 1]])


@given(st.lists(st.lists(st.integers(-9, 9) | rationals, min_size=3, max_size=3), max_size=4))
def test_integer_rows_against_the_rationals(rows):
    """Each scaled row is its rational row times the least scale that makes
    it integral, in int."""
    integer, scales = _integer_rows(rows)
    if all(type(a) is int for row in rows for a in row):
        assert integer is rows and scales is None
        return
    assert len(integer) == len(scales) == len(rows)
    for row, scaled, scale in zip(rows, integer, scales):
        assert all(type(a) is int for a in scaled)
        assert [Fraction(a, scale) for a in scaled] == row
        assert scale == lcm(*(Fraction(a).denominator for a in row))


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


def recursive_monomial_basis(d, s):
    """The reference order: the first exponent from s down to 0, then the
    rest in that order."""
    if d == 1:
        return [(s,)]
    return [(e, *rest) for e in range(s, -1, -1) for rest in recursive_monomial_basis(d - 1, s - e)]


@pytest.mark.parametrize("d", range(1, 8))
def test_monomial_basis_against_recursion(d):
    for s in range(8):
        assert list(monomial_basis(d, s)) == recursive_monomial_basis(d, s)


def test_monomial_basis_in_many_variables():
    """No recursion per variable: 3000 variables are no RecursionError."""
    assert monomial_basis(3000, 0) == ((0,) * 3000,)
    assert monomial_basis(3000, 1)[-1] == (0,) * 2999 + (1,)


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
    assert veronese(tuple(lam * c for c in v), s) == tuple(lam**s * c for c in veronese(v, s))


def monomial_values(v, s):
    """Every monomial of degree s at v, one power at a time."""
    return tuple(prod(c**e for c, e in zip(v, exponents)) for exponents in monomial_basis(len(v), s))


@pytest.mark.parametrize("s", [0, 1, 2, 4])
def test_veronese_types_on_fraction_input(s):
    """Any Fraction coordinate makes every monomial a Fraction, also those
    it has exponent 0 in, and the degree-0 one; all ints give ints."""
    for v in [(Fraction(1, 2), Fraction(-3, 5), Fraction(7)), (Fraction(1, 2), 3, -2), (3, -2, Fraction(5, 3)), (3, -2, 5)]:
        image = veronese(v, s)
        assert image == monomial_values(v, s)
        fractions = any(type(c) is Fraction for c in v)
        assert {type(c) for c in image} == {Fraction if fractions else int}


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("s", [0, 1, 2, 3, 6])
def test_veronese_columns_are_the_rows_of_veronese(d, s):
    points = [tuple(range(k - d, k)) for k in range(7)] + [tuple(Fraction(k, j + 2) for j in range(d)) for k in range(3)]
    for batch in (points[:7], points[7:]):
        columns = veronese_columns([list(column) for column in zip(*batch)], s)
        assert len(columns) == len(monomial_basis(d, s))
        assert list(zip(*columns)) == [veronese(v, s) for v in batch]
        assert [type(c) for row in zip(*columns) for c in row] == [type(c) for v in batch for c in veronese(v, s)]


def test_veronese_columns_rejects_no_coordinates():
    with pytest.raises(DimensionError):
        veronese_columns([], 2)


def check_adjugate(rows):
    """``_adjugate`` gives (P, L, |det B|, M), B the rows at P on the
    sorted columns L, with M B = |det B| I, in ints, and P as many rows as
    the rank."""
    positions, leads, denominator, inverse = _adjugate(rows)
    basis = [[rows[i][c] for c in leads] for i in positions]
    r = len(positions)
    assert leads == sorted(leads) and len(leads) == r
    assert r == (kept_rows(rows, len(rows[0])) if rows else 0)
    assert denominator == abs(determinant(basis)) != 0
    assert all(type(a) is int for row in inverse for a in row)
    for i in range(r):
        for j in range(r):
            assert sum(inverse[i][k] * basis[k][j] for k in range(r)) == (denominator if i == j else 0)
    return positions, leads


@pytest.mark.parametrize(
    "rows",
    [
        [[5]],
        [[0, 1], [1, 0]],
        [[0, 2, 1], [3, 0, 0], [1, 1, 0]],
        # nonzero pivot at step 0, but row 1 loses its entry in column 1
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    ],
)
def test_adjugate_with_row_swaps(rows):
    assert check_adjugate(rows)[0] == list(range(len(rows)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@given(data=st.data())
def test_adjugate_is_det_times_inverse(d, data):
    """A nonsingular matrix keeps every row, a singular one fewer."""
    entries = st.integers(min_value=-2**70, max_value=2**70) | st.integers(min_value=-3, max_value=3)
    rows = [[data.draw(entries) for _ in range(d)] for _ in range(d)]
    positions, _ = check_adjugate(rows)
    assert (positions == list(range(d))) == (determinant(rows) != 0)


def test_adjugate_of_a_singular_matrix():
    """The second row is twice the first: the basis is the first row."""
    assert _adjugate([[1, 2], [2, 4]]) == ([0], [0], 1, [[1]])


def kept_rows(rows, width):
    """The rank: how many rows the reference reduction over Q keeps."""
    return sum(1 for lead, _, _ in rational_reduction(rows, width) if lead is not None)


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


def cofactor_determinant(rows):
    """Independent oracle: Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * cofactor_determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def reduced_determinant(rows):
    """The determinant off the reference reduction over Q: the sign of the
    leads' order times the product of the leads' values, 0 when a row
    vanishes."""
    reduced = list(rational_reduction(rows, len(rows)))
    if any(lead is None for lead, _, _ in reduced):
        return 0
    inversions = sum(a > b for a, b in combinations([lead for lead, _, _ in reduced], 2))
    return (-1) ** inversions * prod(value for _, value, _ in reduced)


NEAR_2_70 = st.sampled_from([2**70 - 1, 2**70, 2**70 + 1]).flatmap(lambda a: st.sampled_from([a, -a]))
INT_ENTRIES = [st.integers(-3, 3), st.integers(-(2**70), 2**70), NEAR_2_70 | st.integers(-1, 1)]


@st.composite
def int_rows(draw, count, width):
    """``count`` int rows of ``width`` entries: small, up to 2^70 or near
    2^70. Some start with zeros, which can put a row's lead right of a
    later row's, and one may be an integer combination of the others."""
    entry = draw(st.sampled_from(INT_ENTRIES))
    rows = [[draw(entry) for _ in range(width)] for _ in range(count)]
    for row in rows:
        if draw(st.booleans()):
            zeros = draw(st.integers(1, width)) if width else 0
            row[:zeros] = [0] * zeros
    if count > 1 and draw(st.booleans()):
        j = draw(st.integers(0, count - 1))
        weights = [draw(st.integers(-2, 2)) for _ in range(count)]
        rows[j] = [sum(w * row[c] for w, row in zip(weights, rows) if row is not rows[j]) for c in range(width)]
    return rows


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
@given(data=st.data())
def test_determinant_against_references(n, data):
    rows = data.draw(int_rows(n, n))
    det = determinant(rows)
    assert det == cofactor_determinant(rows) == reduced_determinant(rows)
    assert type(det) is int


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
@given(data=st.data())
def test_adjugate_against_references(n, data):
    """(P, L, |det B|, sign(det B) adj B): P and L the kept rows and their
    sorted leads of the reference reduction, B the rows at P on the columns
    L, adj B the transposed matrix of cofactors and det B as above. A
    nonsingular A keeps every row, a singular one fewer."""
    rows = data.draw(int_rows(n, n))
    reduced = [(k, lead) for k, (lead, _, _) in enumerate(rational_reduction(rows, n)) if lead is not None]
    positions, leads = [k for k, _ in reduced], sorted(lead for _, lead in reduced)
    basis = [[rows[k][c] for c in leads] for k in positions]
    r, det = len(basis), cofactor_determinant(basis)
    minor = [[row[:i] + row[i + 1 :] for row in basis[:j] + basis[j + 1 :]] for i in range(r) for j in range(r)]
    cofactors = [(-1) ** (k // r + k % r) * cofactor_determinant(m) for k, m in enumerate(minor)]
    sign = 1 if det > 0 else -1
    expected = [[sign * c for c in cofactors[i * r : (i + 1) * r]] for i in range(r)]
    assert _adjugate(rows) == (positions, leads, abs(det), expected)
    assert (r == n) == (cofactor_determinant(rows) != 0)
    assert det == reduced_determinant(basis)


def cofactor_cross(rows, d):
    """The reference cross product: (-1)^(d-1+k) det(V without column k)
    for each column k, by ``reduced_determinant``."""
    return tuple((-1) ** (d - 1 + k) * reduced_determinant([row[:k] + row[k + 1 :] for row in rows]) for k in range(d))


CROSS_ENTRIES = [st.integers(-9, 9), st.integers(-(2**70), 2**70), rationals, st.integers(-3, 3) | rationals]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
@given(data=st.data())
def test_cross_against_cofactors(d, data):
    """The cofactors, on int, Fraction and mixed rows of rank d - 1 and
    below, some with a zero column, which leaves that column free of a
    lead; all-int rows give ints, any other rows Fractions."""
    entry = data.draw(st.sampled_from(CROSS_ENTRIES), label="entry")
    rows = [[data.draw(entry) for _ in range(d)] for _ in range(d - 1)]
    if d > 1 and data.draw(st.booleans()):
        column = data.draw(st.integers(0, d - 1))
        for row in rows:
            row[column] = 0
    if d > 2 and data.draw(st.booleans()):
        # rank below d - 1: the last row a combination of the others
        weights = [data.draw(st.integers(-2, 2)) for _ in range(d - 2)]
        rows[-1] = [sum(w * row[k] for w, row in zip(weights, rows)) for k in range(d)]
    cross = generalized_cross(rows, d)
    assert cross == cofactor_cross(rows, d)
    all_int = all(type(a) is int for row in rows for a in row)
    assert [type(c) for c in cross] == [int if all_int else Fraction] * d


def test_cross_fills_no_pairing_table():
    """A cross product is one elimination: at d = 16 it leaves no table of
    the Laplace sweep cached."""
    rows = [[(i + 2) ** k for k in range(16)] for i in range(15)]
    before = _pairing_table.cache_info().currsize
    cross = generalized_cross(rows)
    assert _pairing_table.cache_info().currsize == before
    probe = list(range(16))
    assert dot(cross, probe) == determinant([*rows, probe]) != 0


def test_duals_of_a_cone_of_rank_below_d_at_d_12():
    """Rank 11 in d = 12, every last coordinate 0: no basis, so each dual
    is a cross product, a multiple of the last axis. The duals of the
    family off generator 0 are parallel, so its minor is 0."""
    cone = Cone((0,) * 12, [(*(t**k for k in range(11)), 0) for t in range(-6, 7)])
    assert len(cone._elimination[0]) < 12
    for indices in combinations(range(13), 11):
        assert diagonal_for(cone, indices).dual == cofactor_cross([cone.generators[i] for i in indices], 12)
    assert vervan.minor(cone, list(combinations(range(1, 13), 11))) == 0


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
@given(data=st.data())
def test_greedy_basis_against_reference(width, data):
    """``_adjugate``'s positions and sorted leads are the rows, in the
    order given, that the reference reduction keeps."""
    count = data.draw(st.integers(1, 7), label="count")
    rows = data.draw(int_rows(count, width), label="rows")
    indices = data.draw(st.permutations(range(count)), label="order")[: data.draw(st.integers(0, count))]
    reduced = rational_reduction([rows[i] for i in indices], width)
    expected = [(i, lead) for i, (lead, _, _) in zip(indices, reduced) if lead is not None]
    positions, leads = check_adjugate([rows[i] for i in indices])
    assert [indices[k] for k in positions] == [i for i, _ in expected]
    assert leads == sorted(lead for _, lead in expected)


@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5])
@given(data=st.data())
def test_echelon_against_reference(width, data):
    """The kept rows, their leads, the last pivot p, the determinant of
    the kept rows on their leads in the leads' order, and the kept rows
    reduced against each other over Q times p. With ``width`` given, on
    the rows followed by ``width`` zeros, the same rows and pivot, and past
    the width the record X of [A | I], each kept row X times the kept input
    rows, as wide as the rows kept. No row is read past the one that makes
    every column a lead."""
    rows = data.draw(int_rows(data.draw(st.integers(0, 7), label="count"), width), label="rows")
    reduced = [(k, lead, row) for k, (lead, _, row) in enumerate(rational_reduction(rows, width)) if lead is not None]
    unread = iter(rows)
    positions, leads, kept, pivot = _echelon(unread)
    assert len(list(unread)) == (len(rows) - 1 - positions[-1] if positions and len(leads) == width else 0)
    assert positions == [k for k, _, _ in reduced]
    assert leads == [lead for _, lead, _ in reduced]
    assert pivot == cofactor_determinant([[rows[k][c] for c in leads] for k in positions])
    full = [row for _, _, row in reduced]
    for i in reversed(range(len(full))):
        for j in range(i):
            factor = full[j][leads[i]]
            full[j] = [a - factor * b for a, b in zip(full[j], full[i])]
    assert kept == [[pivot * a for a in row] for row in full]
    assert all(type(a) is int for row in kept for a in row)
    recorded = _echelon([[*row, *[0] * width] for row in rows], width)
    assert (recorded[0], recorded[1], recorded[3]) == (positions, leads, pivot)
    assert [row[:width] for row in recorded[2]] == kept
    for row in recorded[2]:
        record = row[width:]
        assert not any(record[len(positions) :])
        assert row[:width] == [sum(x * rows[k][c] for x, k in zip(record, positions)) for c in range(width)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dot((1, 2), (1,)), "dot product of lengths 2 and 1"),
        (lambda: vec_sub((1,), (1, 2, 3)), "difference of lengths 1 and 3"),
        (lambda: generalized_cross([(1, 0, 0), (0, 1)]), "input vectors must all have the ambient dimension"),
        (lambda: monomial_basis(0, 1), "invalid monomial basis (0, 1)"),
        (lambda: monomial_basis(2, -1), "invalid monomial basis (2, -1)"),
        (lambda: veronese((), 1), "invalid monomial basis (0, 1)"),
        (lambda: veronese((1, 2), -1), "invalid monomial basis (2, -1)"),
    ],
)
def test_shape_checks(call, message):
    with pytest.raises(DimensionError) as err:
        call()
    assert (err.value.message, err.value.context) == (message, {})
