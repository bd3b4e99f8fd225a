from hypothesis import given, strategies as st

from conefourier.feasibility import interior_witness, solve_nonnegative
from conefourier.geometry import dot

from conftest import vectors


def test_witness_first_quadrant():
    xi = interior_witness([(1, 0), (0, 1)])
    assert xi is not None
    assert all(dot(w, xi) >= 1 for w in [(1, 0), (0, 1)])


def test_witness_rejects_line():
    assert interior_witness([(1, 0), (-1, 0)]) is None


def test_witness_square_cone():
    gens = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    xi = interior_witness(gens)
    assert xi is not None
    assert all(dot(w, xi) >= 1 for w in gens)


def test_witness_halfplane_boundary_case():
    # Pointed, but only barely: the witness must tilt toward (1, 0).
    gens = [(1, 0), (1, 1), (1, -1)]
    xi = interior_witness(gens)
    assert xi is not None and all(dot(w, xi) >= 1 for w in gens)


def test_solve_nonnegative_equalities():
    x = solve_nonnegative([(1, 1), (1, -1)], (4, 0))
    assert x == (2, 2)


def test_solve_nonnegative_infeasible_sign():
    assert solve_nonnegative([(1, 0)], (-2,)) is None


@given(data=st.data())
def test_witness_certifies_whenever_found(data):
    gens = [data.draw(vectors(2)) for _ in range(data.draw(st.integers(1, 4)))]
    gens = [g for g in gens if any(c != 0 for c in g)]
    if not gens:
        return
    xi = interior_witness(gens)
    if xi is not None:
        assert all(dot(w, xi) >= 1 for w in gens)
    else:
        # A family entirely on one strict side of a hyperplane is always
        # feasible, so infeasible answers must not look like that.
        assert not all(g[0] > 0 for g in gens)
        assert not all(g[0] < 0 for g in gens)
        assert not all(g[1] > 0 for g in gens)
        assert not all(g[1] < 0 for g in gens)
