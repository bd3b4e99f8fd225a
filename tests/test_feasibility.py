"""The pointedness witness of ``validate_cone``, on the inputs that once
tested the feasibility simplex's witness LP, and ``solve_nonnegative``,
kept as the reference LP the tests check the double description against."""

import pytest
from hypothesis import given, strategies as st

from conefourier import Cone, validate_cone
from conefourier.errors import NotPointedError
from conefourier.feasibility import solve_nonnegative
from conefourier.geometry import _clear_denominators, _primitive, dot

from conftest import vectors


def witness(generators):
    """validate_cone's witness on the cone at the origin, after checking
    that its least value on a generator is exactly 1."""
    xi = validate_cone(Cone((0,) * len(generators[0]), generators)).witness
    assert min(dot(w, xi) for w in generators) == 1
    return xi


def test_witness_first_quadrant():
    witness([(1, 0), (0, 1)])


def test_witness_rejects_line():
    with pytest.raises(NotPointedError) as err:
        validate_cone(Cone((0, 0), ((1, 0), (-1, 0))))
    assert err.value.context == {}


def test_witness_square_cone():
    witness([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])


def test_witness_halfplane_boundary_case():
    # Pointed, but only barely: the witness must tilt toward (1, 0).
    xi = witness([(1, 0), (1, 1), (1, -1)])
    assert xi[0] > abs(xi[1])


def test_solve_nonnegative_equalities():
    x = solve_nonnegative([(1, 1), (1, -1)], (4, 0))
    assert x == (2, 2)


def test_solve_nonnegative_infeasible_sign():
    assert solve_nonnegative([(1, 0)], (-2,)) is None


@given(data=st.data())
def test_witness_certifies_whenever_found(data):
    gens, rays = [], set()
    for g in (data.draw(vectors(2)) for _ in range(data.draw(st.integers(1, 4)))):
        ray = _primitive(_clear_denominators(g)[0]) if any(g) else None
        if ray is not None and ray not in rays:
            rays.add(ray)
            gens.append(g)
    if len(gens) < 2:
        return
    try:
        witness(gens)
    except NotPointedError:
        # A family entirely on one strict side of a hyperplane is always
        # pointed, so a rejected one must not look like that.
        assert not all(g[0] > 0 for g in gens)
        assert not all(g[0] < 0 for g in gens)
        assert not all(g[1] > 0 for g in gens)
        assert not all(g[1] < 0 for g in gens)
