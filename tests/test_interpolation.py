import random
import sys
import threading
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

from conefourier import (
    Cone,
    build_system,
    diagonal_for,
    pk_via_interpolation,
    pk_via_triangulation,
    rhs_value,
    solve_exact,
)
from conefourier.errors import (
    DegenerateDiagonalError,
    InconsistentError,
    RankDeficientError,
)
from conefourier.cones import is_general_position
from conefourier.geometry import _reduce_rows, vec_scale, veronese
from conefourier.interpolation import (
    _PRIME,
    InterpolationSystem,
    SystemRow,
    _solve_modular,
    solve_with_details,
)
from conefourier.sampling import sample_cone

from conftest import random_cones


class TestRhsValues:
    def test_fan_values(self, fan_cone):
        values = [rhs_value(fan_cone, diagonal_for(fan_cone, (i,))) for i in range(3)]
        assert values == [1, 0, -1]

    def test_square_cone_values(self, square_cone):
        assert rhs_value(square_cone, diagonal_for(square_cone, (0, 1))) == 4
        assert rhs_value(square_cone, diagonal_for(square_cone, (1, 3))) == 0
        # both off-diagonal determinants are negative here, so the common
        # sign makes the value negative
        assert rhs_value(square_cone, diagonal_for(square_cone, (0, 3))) == -4
        assert rhs_value(square_cone, diagonal_for(square_cone, (2, 3))) == 4

    def test_degenerate_raises(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        with pytest.raises(DegenerateDiagonalError):
            rhs_value(cone, diagonal_for(cone, (0, 1)))


class TestBuildSystem:
    def test_fan_system(self, fan_cone):
        system = build_system(fan_cone)
        assert [row.diagonal for row in system.rows] == [(0,), (1,), (2,)]
        assert [row.coefficients for row in system.rows] == [(0, 1), (-1, 1), (-1, 0)]
        assert [row.rhs for row in system.rows] == [1, 0, -1]
        assert system.skipped == ()

    def test_square_cone_rhs_vector(self, square_cone):
        system = build_system(square_cone)
        assert [row.rhs for row in system.rows] == [4, 0, -4, 4, 0, 4]

    def test_simplicial_cone_system(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
        system = build_system(cone)
        assert len(system.rows) == 3 and system.unknowns == 1
        assert all(row.coefficients == (1,) for row in system.rows)
        assert all(row.rhs == 2 for row in system.rows)

    def test_degenerate_diagonals_are_skipped(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        system = build_system(cone)
        assert (0, 1) in system.skipped
        assert all(row.diagonal not in system.skipped for row in system.rows)


class TestSolver:
    def test_fan_solution(self, fan_cone):
        assert solve_exact(build_system(fan_cone)).coefficients == (1, 1)

    def test_square_cone_solution(self, square_cone):
        assert solve_exact(build_system(square_cone)).coefficients == (0, 0, 4)

    def test_duplicate_contradictory_rows(self):
        system = InterpolationSystem(
            dimension=2,
            degree=1,
            rows=(
                SystemRow((0,), (Fraction(1), Fraction(0)), Fraction(1)),
                SystemRow((1,), (Fraction(1), Fraction(0)), Fraction(2)),
            ),
        )
        with pytest.raises(InconsistentError) as exc:
            solve_exact(system)
        assert exc.value.context == {"diagonal": (2,), "residual": 1}

    def test_rank_deficiency(self):
        system = InterpolationSystem(
            dimension=2,
            degree=1,
            rows=(SystemRow((0,), (Fraction(1), Fraction(0)), Fraction(1)),),
            skipped=((1,),),
        )
        with pytest.raises(RankDeficientError) as exc:
            solve_exact(system)
        assert exc.value.context["skipped"] == ((2,),)

    def test_details_report_full_rank(self, square_cone):
        system = build_system(square_cone)
        poly, details = solve_with_details(system)
        assert details.rank == system.unknowns == 3
        assert poly.coefficients == (0, 0, 4)


class TestPipelineEquivalence:
    def test_fan(self, fan_cone):
        assert pk_via_interpolation(fan_cone).coefficients == (1, 1)

    def test_square_cone(self, square_cone):
        assert pk_via_interpolation(square_cone).coefficients == (0, 0, 4)

    def test_simplicial(self):
        cone = Cone((0, 0), ((3, 1), (1, 2)))
        assert pk_via_interpolation(cone).coefficients == (5,)

    @given(cone=random_cones(dims=(2, 3, 4), extras=(0, 1, 2, 3)))
    def test_matches_triangulation(self, cone):
        assert pk_via_interpolation(cone) == pk_via_triangulation(cone)

    @given(cone=random_cones())
    def test_degree_is_codimension(self, cone):
        poly = pk_via_interpolation(cone)
        assert poly.degree == cone.num_generators - cone.dimension

    @given(cone=random_cones(), data=st.data())
    def test_generator_rescaling_scales_pk(self, cone, data):
        index = data.draw(st.integers(0, cone.num_generators - 1))
        lam = data.draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(5, 3)]))
        scaled = Cone(
            cone.apex,
            tuple(vec_scale(lam, g) if j == index else g for j, g in enumerate(cone.generators)),
        )
        assert pk_via_interpolation(scaled) == pk_via_interpolation(cone).scale(lam)
        assert pk_via_triangulation(scaled) == pk_via_triangulation(cone).scale(lam)

    @given(cone=random_cones(dims=(2, 3), extras=(1, 2, 3)))
    def test_full_rank_on_generic_cones(self, cone):
        system = build_system(cone)
        _, details = solve_with_details(system)
        assert details.rank == comb(cone.num_generators - 1, cone.dimension - 1)
        assert system.skipped == ()


def exact_pivots(system):
    """Pivots of the plain exact reduction of the rows, rhs as a last
    column, in their given order."""
    augmented = [(*row.coefficients, row.rhs) for row in system.rows]
    leads = (lead for lead, _, _ in _reduce_rows(augmented, system.unknowns + 1))
    return tuple((row.diagonal, lead) for row, lead in zip(system.rows, leads) if lead is not None)


def two_row_system(first, second):
    return InterpolationSystem(
        dimension=2,
        degree=1,
        rows=tuple(
            SystemRow((i,), tuple(map(Fraction, entries[:2])), Fraction(entries[2]))
            for i, entries in enumerate((first, second))
        ),
    )


class TestModularSolve:
    @pytest.mark.parametrize(
        "first, second, solution, accepted",
        [
            # The first lead is column 0 over Q but column 1 mod p.
            ((_PRIME, 1, _PRIME + 1), (1, 0, 1), (1, 1), True),
            # The first row vanishes mod p, so the rank is short there.
            ((_PRIME, 0, _PRIME), (0, 1, 1), (1, 1), False),
            # 2^70 lies beyond the symmetric residues, so the check fails.
            ((1, 0, 2**70), (0, 1, 1), (2**70, 1), False),
        ],
    )
    def test_hand_built_systems(self, first, second, solution, accepted):
        system = two_row_system(first, second)
        assert (_solve_modular(system) is not None) == accepted
        poly, details = solve_with_details(system)
        assert poly.coefficients == solution
        assert details.rank == 2
        assert details.pivots == (((0,), 0), ((1,), 1)) == exact_pivots(system)

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 8)])
    def test_pivots_are_exact_on_sampled_cones(self, d, n):
        system = build_system(sample_cone(random.Random(5), d, n))
        assert _solve_modular(system) is not None
        _, details = solve_with_details(system)
        assert "pivots" not in vars(details)  # not computed until read
        assert details.pivots == exact_pivots(system)
        assert details.rank == system.unknowns == len(details.pivots)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_and_rational_coordinates(self, seed):
        rng = random.Random(seed)
        accepted = []
        for d, n in [(2, 2), (2, 4), (3, 5), (3, 6), (4, 6)]:
            base = sample_cone(rng, d, n)
            shifted = [tuple(10**6 * c + rng.randint(-9, 9) for c in g) for g in base.generators]
            rational = [tuple(c + Fraction(rng.randint(-3, 3), rng.randint(2, 9)) for c in g) for g in base.generators]
            for generators in (shifted, rational):
                cone = Cone(base.apex, tuple(generators))
                assert is_general_position(cone)
                accepted.append(_solve_modular(build_system(cone)) is not None)
                assert pk_via_interpolation(cone) == pk_via_triangulation(cone)
        # Every rational cone takes the modular path through its integer
        # form; of the large ones only the simplicial cone's 40-bit |det|
        # fits the symmetric residues.
        assert accepted == [True, True] + [False, True] * 4

    def test_shared_details_across_threads(self):
        system = build_system(sample_cone(random.Random(6), 3, 6))
        _, details = solve_with_details(system)
        expected = exact_pivots(system)
        results = []

        def work():
            results.append(details.pivots)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 6


def moved(rng, cone, offsets):
    """The cone with each generator coordinate c replaced by c * s + t, s
    from the drawn scales and t from the drawn offsets."""
    return Cone(
        cone.apex,
        tuple(tuple(c * rng.choice(offsets[0]) + rng.choice(offsets[1]) for c in g) for g in cone.generators),
    )


RATIONAL = ([1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)], [0, Fraction(1, 3), Fraction(-2, 5)])
LARGE = ([10**6], range(-9, 10))


class TestIntegerNormalForm:
    """Rows on the integer generators u_j = m_j w_j are the rational rows
    times c_D^(n-d), c_D the product of m_i over the diagonal, and the
    values there are scale * c_D^(n-d) times p_K's."""

    @staticmethod
    def assert_rows_rescale_rational_rows(cone):
        system = build_system(cone)
        degree = cone.num_generators - cone.dimension
        assert system.scale == cone.scale == prod(cone.scales)
        for row in system.rows:
            diagonal = diagonal_for(cone, row.diagonal)
            factor = prod(cone.scales[i] for i in row.diagonal) ** degree
            assert row.coefficients == tuple(factor * c for c in veronese(diagonal.dual, degree))
            assert row.rhs == cone.scale * factor * rhs_value(cone, diagonal)
            assert all(type(c) is int for c in (*row.coefficients, row.rhs))
        return system

    def test_integer_cones_are_their_own_form(self):
        golden = sample_cone(random.Random(42), 3, 6)  # transform_3_6 golden, with (-3, -3, 3)
        large = moved(random.Random(1), sample_cone(random.Random(1), 4, 7), LARGE)
        for cone in (golden, large):
            assert cone.integer_generators == cone.generators and cone.scales == (1,) * cone.num_generators
            self.assert_rows_rescale_rational_rows(cone)
            assert pk_via_interpolation(cone) == pk_via_triangulation(cone)

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 6), (4, 7)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rational_cones(self, d, n, seed):
        rng = random.Random(seed)
        cone = moved(rng, sample_cone(rng, d, n), RATIONAL)
        assert is_general_position(cone) and cone.scale > 1
        system = self.assert_rows_rescale_rational_rows(cone)
        assert _solve_modular(system) is not None
        expected = pk_via_triangulation(cone)
        assert solve_exact(system) == pk_via_interpolation(cone) == expected
        assert expected == pk_via_triangulation(Cone(cone.apex, cone.integer_generators)).scale(Fraction(1, cone.scale))

    def test_rational_and_large_coordinates_together(self):
        rng = random.Random(3)
        cone = moved(rng, moved(rng, sample_cone(rng, 3, 6), LARGE), RATIONAL)
        self.assert_rows_rescale_rational_rows(cone)
        assert pk_via_interpolation(cone) == pk_via_triangulation(cone)
