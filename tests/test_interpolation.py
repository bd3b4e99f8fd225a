import random
import sys
import threading
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, given, reject, strategies as st

from conefourier import (
    Cone,
    build_system,
    diagonal_for,
    interpolation,
    pk_via_interpolation,
    pk_via_triangulation,
    rhs_value,
    solve_exact,
)
from conefourier.errors import (
    DegenerateDiagonalError,
    DimensionError,
    DuplicateRayError,
    InconsistentError,
    RankDeficientError,
    ZeroGeneratorError,
)
from conefourier.cones import is_general_position
from conefourier.geometry import determinant, dot, generalized_cross, monomial_basis, veronese
from conefourier.brion import polytope_combinatorics, tangent_cone
from conefourier.interpolation import (
    InterpolationSystem,
    SystemRow,
    _eliminate,
    _prime,
    _reduce_mod,
    _solve_modular,
    solve_with_details,
)
from conefourier.sampling import sample_cone

from conftest import random_cones, rational_cone, rational_reduction, rationals

P = _prime(3)  # the prime of the two-row systems below (3 entries a row)


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

    @pytest.mark.parametrize(
        "cone",
        [
            sample_cone(random.Random(1), 4, 9),
            sample_cone(random.Random(1), 5, 10),
            Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3))),
            Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))),
        ],
        ids=["4-9", "5-10", "non-generic", "rank-2"],
    )
    def test_at_most_d_cross_products(self, cone, monkeypatch):
        """The duals come from the minor table through one adjugate, so no
        dual is a cross product: the rank-2 cone, which has no basis, has
        only degenerate diagonals, whose duals are never asked for."""
        calls = []

        def counting(vectors, dimension=None):
            calls.append(vectors)
            return generalized_cross(vectors, dimension)

        for name, module in list(sys.modules.items()):
            if name.startswith("conefourier") and hasattr(module, "generalized_cross"):
                monkeypatch.setattr(module, "generalized_cross", counting)
        fresh = Cone(cone.apex, cone.generators)
        system = build_system(fresh)
        assert calls == []
        assert system == build_system(cone)


def reference_system(cone):
    """build_system made one diagonal at a time and apart from the minor
    table: each dual the cross product of the integer generators on the
    diagonal, its row the value there of each monomial of the basis, and
    its rhs the row-value rule on its dot products with the others."""
    d, n = cone.dimension, cone.num_generators
    u = cone.integer_generators
    exponents = monomial_basis(d, n - d)
    rows, skipped = [], []
    for indices in combinations(range(n), d - 1):
        dual = generalized_cross([u[i] for i in indices], d)
        pairings = [sum(map(mul, dual, u[j])) for j in range(n) if j not in indices]
        if 0 in pairings:
            skipped.append(indices)
            continue
        rhs = 0 if min(pairings) < 0 < max(pairings) else (1 if pairings[0] > 0 else -1) * prod(pairings)
        coefficients = tuple(prod(c**e for c, e in zip(dual, monomial)) for monomial in exponents)
        rows.append(SystemRow(indices, coefficients, rhs))
    return InterpolationSystem(d, n - d, tuple(rows), tuple(skipped), cone.scale)


def assert_builds_the_reference(cone):
    system = build_system(cone)
    assert system == reference_system(cone)
    assert all(type(c) is int for row in system.rows for c in (*row.coefficients, row.rhs))
    return system


small_integer_cones = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(min_value=-6, max_value=6)] * d),
        min_size=d,
        max_size=d + 3,
        unique=True,
    )
)


class TestColumnBuild:
    """build_system makes its rows a block of diagonals at a time, column
    by column: duals from one adjugate, then one column per monomial. Row
    for row it must equal the per-diagonal reference."""

    @given(generators=small_integer_cones)
    def test_integer_cones(self, generators):
        try:
            cone = Cone((0,) * len(generators[0]), generators)
        except (ZeroGeneratorError, DuplicateRayError):
            reject()
        assert_builds_the_reference(cone)

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 6), (4, 7), (5, 8)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_rational_cones(self, d, n, seed):
        cone = rational_cone(random.Random(seed), d, n)
        assert cone.scale > 1
        assert_builds_the_reference(cone)

    @pytest.mark.parametrize("d, n", [(5, 10), (6, 10)])
    def test_seeded_cones_of_more_than_one_block(self, d, n):
        cone = sample_cone(random.Random(1), d, n)
        assert comb(n, d - 1) > interpolation._BLOCK
        assert_builds_the_reference(cone)

    @pytest.mark.parametrize("block", [1, 2, 5, 128])
    def test_block_size_does_not_matter(self, block, monkeypatch):
        cone = sample_cone(random.Random(2), 4, 8)
        monkeypatch.setattr(interpolation, "_BLOCK", block)
        assert_builds_the_reference(Cone(cone.apex, cone.generators))

    def test_basis_with_leading_zero(self):
        """u_0 starts with 0, so the elimination of U_S swaps rows."""
        cone = Cone((0, 0, 0), ((0, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (2, -1, 1), (-1, 3, 2)))
        assert cone._elimination[0] == [0, 1, 2]
        assert_builds_the_reference(cone)

    def test_zero_minors(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, -1, 0), (1, 2, 3)))
        system = assert_builds_the_reference(cone)
        assert system.skipped and system.rows
        assert cone._elimination[0] == [0, 1, 3]

    def test_rank_below_d(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)))
        system = assert_builds_the_reference(cone)
        assert system.rows == () and len(system.skipped) == 6
        assert len(cone._elimination[0]) == 2
        diagonals = list(combinations(range(4), 2))
        columns = cone._dual_columns(diagonals, [cone.integer_pairings(m) for m in diagonals])
        expected = [generalized_cross([cone.integer_generators[i] for i in m], 3) for m in diagonals]
        assert list(zip(*columns)) == expected

    @pytest.mark.parametrize(
        "cone",
        [Cone((0,), ((Fraction(-3, 2),),)), *(sample_cone(random.Random(d), d, d) for d in (2, 3, 5))],
        ids=["1", "2", "3", "5"],
    )
    def test_degree_zero(self, cone):
        system = assert_builds_the_reference(cone)
        assert all(row.coefficients == (1,) for row in system.rows)

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 7)])
    def test_coordinates_near_2_to_the_70(self, d, n):
        rng = random.Random(d)
        base = sample_cone(rng, d, n)
        cone = Cone(base.apex, tuple(tuple(2**70 * c + rng.randint(-9, 9) for c in g) for g in base.generators))
        assert max(abs(c) for g in cone.integer_generators for c in g).bit_length() > 70
        assert_builds_the_reference(cone)


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

    def test_row_of_the_wrong_length(self):
        system = InterpolationSystem(
            dimension=2,
            degree=1,
            rows=(SystemRow((0,), (1, 0), 1), SystemRow((1,), (1, 0, 2), 1)),
        )
        with pytest.raises(DimensionError) as err:
            solve_with_details(system)
        assert err.value.message == "row for diagonal (2,) has 3 entries, expected 2"
        assert err.value.context == {"diagonal": (2,)}

    def test_float_entry_is_refused(self):
        system = InterpolationSystem(
            dimension=2,
            degree=1,
            rows=(SystemRow((0,), (1, 0), 1), SystemRow((1,), (0, 0.5), 1)),
        )
        for solve in (solve_with_details, _eliminate):
            with pytest.raises(TypeError):
                solve(system)

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
            tuple(tuple(lam * c for c in g) if j == index else g for j, g in enumerate(cone.generators)),
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
    """Pivots of the reference reduction over Q of the rows, rhs as a last
    column, in their given order."""
    augmented = [(*row.coefficients, row.rhs) for row in system.rows]
    leads = (lead for lead, _, _ in rational_reduction(augmented, system.unknowns + 1))
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
            ((P, 1, P + 1), (1, 0, 1), (1, 1), True),
            # The first row vanishes mod p, so the rank is short there.
            ((P, 0, P), (0, 1, 1), (1, 1), False),
            # 2^70 takes three balanced digits of the 31-bit prime, all
            # lifted from the one reduction.
            ((1, 0, 2**70), (0, 1, 1), (2**70, 1), True),
            # The solution is not integral, so the lift never clears the
            # residual, the digit cap ends it and the exact reduction gives
            # the Fractions.
            ((2, 0, 1), (0, 3, 1), (Fraction(1, 2), Fraction(1, 3)), False),
        ],
    )
    def test_hand_built_systems(self, first, second, solution, accepted):
        system = two_row_system(first, second)
        assert (_solve_modular(system) is not None) == accepted
        poly, details = solve_with_details(system)
        assert poly.coefficients == solution
        assert details.rank == 2
        assert details.pivots == (((0,), 0), ((1,), 1)) == exact_pivots(system)

    def test_bool_and_fraction_rows_are_scaled_to_ints(self):
        system = InterpolationSystem(
            dimension=2,
            degree=1,
            rows=(
                SystemRow((0,), (True, False), 3),
                SystemRow((1,), (0, Fraction(1, 2)), Fraction(5, 2)),
            ),
        )
        assert _solve_modular(system) == [3, 5]
        assert solve_exact(system).coefficients == (3, 5)

    def test_solution_wider_than_the_prime_is_lifted(self):
        """One unknown and solution x = 2^40, two balanced digits of the
        31-bit prime p: the lift recovers it. With p itself as coefficient
        the row vanishes mod p, the rank is short there, and the exact
        reduction solves the system."""
        p, x = _prime(2), 2**40
        assert p < x < p * p // 2
        for coefficient, lifted in ((3, [x]), (p, None)):
            system = InterpolationSystem(dimension=1, degree=1, rows=(SystemRow((0,), (coefficient,), coefficient * x),))
            assert _solve_modular(system) == lifted
            assert solve_exact(system).coefficients == (x,)

    @pytest.mark.parametrize("kind", ["integral", "fractional", "inconsistent"])
    @given(data=st.data())
    def test_lift_matches_exact_back_substitution(self, kind, data):
        """Random square integer systems B x = b, x drawn to need 1-4
        balanced digits of the prime. |det B| < p, so B is nonsingular mod p
        whenever it is over Q. An integral x is lifted exactly; B scaled by
        q = 2 or 3 makes x / q the solution, which is not integral, and a
        copy of a row with rhs + 1 after full rank makes the system
        inconsistent: both give None."""
        unknowns = data.draw(st.integers(1, 4), label="unknowns")
        p = _prime(unknowns + 1)
        top = (p ** data.draw(st.integers(1, 4), label="digits") - 1) // 2
        x = data.draw(st.lists(st.integers(-top, top), min_size=unknowns, max_size=unknowns), label="x")
        entries = st.lists(st.integers(-15, 15), min_size=unknowns, max_size=unknowns)
        matrix = data.draw(st.lists(entries, min_size=unknowns, max_size=unknowns), label="B")
        assume(determinant(matrix) != 0)
        rhs = [sum(map(mul, row, x)) for row in matrix]
        q = data.draw(st.sampled_from([2, 3]), label="q") if kind == "fractional" else 1
        assume(any(c % q for c in x) or q == 1)
        rows = [SystemRow((i + 1,), tuple(q * a for a in row), b) for i, (row, b) in enumerate(zip(matrix, rhs))]
        if kind == "inconsistent":
            rows.append(SystemRow((unknowns + 1,), rows[0].coefficients, rows[0].rhs + 1))
        system = InterpolationSystem(dimension=2, degree=unknowns - 1, rows=tuple(rows))
        if kind == "inconsistent":
            assert _solve_modular(system) is None
            with pytest.raises(InconsistentError):
                _eliminate(system)
            return
        exact = exact_solution(system)
        assert exact == [Fraction(c, q) for c in x]
        assert _solve_modular(system) == (x if q == 1 else None)

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
        # Every cone takes the modular path: rational ones through their
        # integer form, large ones with as many digits as their
        # coefficients need.
        assert accepted == [True] * 10

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


def exact_solution(system):
    """Back-substitution over Q on the rows ``_eliminate`` keeps, each
    divided by its lead entry."""
    solution = [Fraction(0)] * system.unknowns
    for _, lead, work in sorted(_eliminate(system), key=lambda k: k[1], reverse=True):
        rest = sum((work[j] * solution[j] for j in range(lead + 1, system.unknowns)), Fraction(0))
        solution[lead] = (work[-1] - rest) / work[lead]
    return solution


@st.composite
def hand_built_systems(draw, entries):
    """Systems of 1-4 unknowns with one row fewer to three rows more, each
    row of values of one of ``entries``, some rows combinations of the rows
    before them, and two skipped diagonals. Either every rhs is the rows'
    value at a drawn solution, of ``entries[0]`` values, or the rhs are
    drawn too and a combination may have its rhs moved."""
    unknowns = draw(st.integers(1, 4), label="unknowns")
    x = draw(st.none() | st.lists(entries[0], min_size=unknowns, max_size=unknowns), label="solution")
    rows = []
    for _ in range(draw(st.integers(max(1, unknowns - 1), unknowns + 3), label="count")):
        entry = draw(st.sampled_from(entries), label="entry")
        if rows and draw(st.integers(0, 2)) == 0:
            weights = [draw(entry) for _ in rows]
            row = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(unknowns + 1)]
            if x is None and draw(st.booleans()):
                row[-1] += draw(entry.filter(bool))
        else:
            coefficients = [draw(entry) for _ in range(unknowns)]
            row = [*coefficients, draw(entry) if x is None else sum(map(mul, coefficients, x))]
        rows.append(row)
    return InterpolationSystem(
        dimension=2,
        degree=unknowns - 1,
        rows=tuple(SystemRow((i,), tuple(r[:-1]), r[-1]) for i, r in enumerate(rows)),
        skipped=((7,), (9,)),
    )


class TestExactElimination:
    @pytest.mark.parametrize(
        "entries",
        [(st.integers(-9, 9),), (rationals,), (st.integers(-9, 9), rationals)],
        ids=["int", "fraction", "mixed"],
    )
    @given(data=st.data())
    def test_matches_the_rational_reduction(self, entries, data):
        """The first row whose only surviving entry is its rhs raises with
        the reference's residual, a Fraction; otherwise too few kept rows
        raise with the reference's rank; otherwise the leads are the
        reference's, each kept row is an int multiple of its reduced row,
        and the solution is the reference's back-substitution. Mixed
        systems hold int rows beside Fraction rows, each row with its own
        scale."""
        system = data.draw(hand_built_systems(entries), label="system")
        unknowns = system.unknowns
        augmented = [(*row.coefficients, row.rhs) for row in system.rows]
        reference = list(rational_reduction(augmented, unknowns + 1))
        for row, (lead, value, _) in zip(system.rows, reference):
            if lead == unknowns:
                with pytest.raises(InconsistentError) as exc:
                    _eliminate(system)
                assert exc.value.context == {"diagonal": (row.diagonal[0] + 1,), "residual": value}
                assert type(exc.value.context["residual"]) is Fraction
                return
        kept = [(row.diagonal, lead, reduced) for row, (lead, _, reduced) in zip(system.rows, reference) if lead is not None]
        if len(kept) < unknowns:
            with pytest.raises(RankDeficientError) as exc:
                _eliminate(system)
            assert exc.value.context == {"rank": len(kept), "unknowns": unknowns, "skipped": ((8,), (10,))}
            return
        eliminated = _eliminate(system)
        assert [(diagonal, lead) for diagonal, lead, _ in eliminated] == [(diagonal, lead) for diagonal, lead, _ in kept]
        for (_, lead, work), (_, _, reduced) in zip(eliminated, kept):
            assert all(type(a) is int for a in work)
            assert [Fraction(a, work[lead]) for a in work] == reduced
        solution = [Fraction(0)] * unknowns
        for _, lead, reduced in sorted(kept, key=lambda k: k[1], reverse=True):
            solution[lead] = reduced[-1] - sum(reduced[j] * solution[j] for j in range(lead + 1, unknowns))
        assert exact_solution(system) == solution
        poly, details = solve_with_details(system)
        assert poly.coefficients == tuple(solution)
        assert details.pivots == exact_pivots(system)


def leads_and_rows(rows, width, p):
    """``_reduce_mod``'s (lead, kept) pairs, the part ``plain_reduce_mod`` gives."""
    return [(lead, work) for lead, work, _, _ in _reduce_mod(rows, width, p)]


def plain_reduce_mod(rows, width, p):
    """The reference for ``_reduce_mod``: the lead-column rule of
    ``rational_reduction`` mod p, one reduced entry at a time."""
    kept = []
    for row in rows:
        work = [a % p for a in row]
        for lead, pivot in kept:
            factor = work[lead]
            if factor:
                work = [(a - factor * b) % p for a, b in zip(work, pivot)]
        lead = next((j for j, a in enumerate(work) if a), None)
        if lead is None:
            yield None, None
            continue
        inv = pow(work[lead], -1, p)
        work = [a * inv % p for a in work]
        kept.append((lead, work))
        yield lead, work


class TestPackedReduction:
    # The prime for the widest of these systems (21 entries) and a smaller
    # one, for a million entries; both hold all three in 8-byte slots.
    @pytest.mark.parametrize("p", [_prime(21), _prime(10**6), 101])
    @pytest.mark.parametrize("d, n, seed", [(2, 5, 1), (3, 6, 2), (4, 7, 3)])
    def test_matches_plain_reduction_on_sampled_systems(self, d, n, seed, p):
        system = build_system(sample_cone(random.Random(seed), d, n))
        rows = [[*row.coefficients, row.rhs] for row in system.rows]
        rows.append(rows[0])  # a row that vanishes
        expected = list(plain_reduce_mod(rows, system.unknowns + 1, p))
        assert leads_and_rows(rows, system.unknowns + 1, p) == expected
        assert expected[-1] == (None, None)

    @pytest.mark.parametrize("unknowns", [2, 3, 5, 56, 126])
    def test_matches_plain_reduction_at_the_slot_bound(self, unknowns):
        """A ladder of p - 1 entries only, whose last row takes ``unknowns``
        updates, and pivots e_k + (p-1) e_rhs, which take the last row's rhs
        slot to p - 1 + unknowns * (p-1)^2, the most a slot can reach; p
        the largest prime the solve takes at this width."""
        width = unknowns + 1
        p = _prime(width)
        ladder = [[p - 1] * (k + 1) + [0] * (width - k - 1) for k in range(unknowns)]
        spikes = [[int(j == k) + (p - 1) * (j == unknowns) for j in range(width)] for k in range(unknowns)]
        for rows in (ladder + [[p - 1] * width], spikes + [[1] * unknowns + [p - 1]]):
            expected = list(plain_reduce_mod(rows, width, p))
            assert leads_and_rows(rows, width, p) == expected
            assert [lead for lead, _ in expected] == list(range(width))

    def test_primes_beyond_the_slot_bound_are_refused(self):
        """The largest prime with p + width * (p-1)^2 < 2^64 at 127 entries,
        above the solve's own, still matches the plain reduction on the
        ladder; the next prime up is refused before any row is read."""
        width = 127

        def fits(q):
            return q + width * (q - 1) ** 2 < 2**64

        top = isqrt(2**64 // width) + 1
        p = next(q for q in range(top | 1, 2, -2) if fits(q) and is_prime(q))
        beyond = next(q for q in range(p + 2, 2 * p, 2) if is_prime(q))
        assert p > _prime(width) and not fits(beyond)
        ladder = [[p - 1] * (k + 1) + [0] * (width - k - 1) for k in range(width - 1)] + [[p - 1] * width]
        assert leads_and_rows(ladder, width, p) == list(plain_reduce_mod(ladder, width, p))
        with pytest.raises(ValueError):
            next(_reduce_mod(ladder, width, beyond))

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 8), (5, 10)])
    def test_anchor_star_rows_reach_full_rank(self, d, n):
        """Under general position the rows whose diagonal avoids generator 0
        are independent, so the solve keeps each of them (DECISIONS.md)."""
        system = build_system(sample_cone(random.Random(1), d, n))
        anchor = [[*row.coefficients, row.rhs] for row in system.rows if 0 not in row.diagonal]
        assert len(anchor) == comb(n - 1, d - 1) == system.unknowns
        width = system.unknowns + 1
        leads = [lead for lead, _, _, _ in _reduce_mod(anchor, width, _prime(width))]
        assert sorted(leads) == list(range(system.unknowns))

    @pytest.mark.parametrize("d, n", [(3, 6), (4, 8)])
    def test_factors_replay_the_reduction_on_a_new_column(self, d, n):
        """Replaying each kept row's factors and lead inverse on any last
        column gives what reducing the rows with that column gives there:
        on the rhs, the kept rows' own last entries."""
        system = build_system(sample_cone(random.Random(2), d, n))
        anchor = [[*row.coefficients, row.rhs] for row in system.rows if 0 not in row.diagonal]
        width, p = system.unknowns + 1, _prime(system.unknowns + 1)
        rng = random.Random(3)
        column = [rng.randint(-(10**30), 10**30) for _ in anchor]
        moved = [[*row[:-1], c] for row, c in zip(anchor, column)]
        reduction = list(_reduce_mod(anchor, width, p))
        for rhs, rows in ((column, moved), ([row[-1] for row in anchor], anchor)):
            reduced = []
            for (_, _, factors, inv), r in zip(reduction, rhs):
                reduced.append((r - sum(map(mul, factors, reduced))) * inv % p)
            assert reduced == [work[-1] for _, work in plain_reduce_mod(rows, width, p)]


# The prime the solve takes at the last width of each class up to the 127
# entries of a (5, 10) row: the largest below 2^31, 2^30, 2^29 and 2^28.
PRIMES = {3: 2**31 - 1, 15: 2**30 - 35, 63: 2**29 - 3, 127: 2**28 - 57}


def is_prime(q):
    return q > 1 and all(q % f for f in range(2, isqrt(q) + 1))


class TestPrimes:
    def test_first_primes(self):
        assert {width: _prime(width) for width in PRIMES} == PRIMES

    def test_threads_racing_on_a_cleared_cache_agree(self):
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _prime.cache_clear()
            threads = [threading.Thread(target=lambda: results.append(_prime(127))) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [PRIMES[127]] * 6
        assert {width: _prime(width) for width in PRIMES} == PRIMES

    @pytest.mark.parametrize("width", [1, 2, 57, 127, 4095, 4096, 10**6])
    def test_primes_fit_eight_byte_slots(self, width):
        """The prime is the largest below its ceiling 2^k, by trial
        division, and small enough that p + width * (p-1)^2 < 2^64."""
        k = (64 - width.bit_length()) // 2
        p = _prime(width)
        assert 2 ** (k - 1) < p < 2**k and is_prime(p)
        assert not any(map(is_prime, range(p + 1, 2**k)))
        assert p + width * (p - 1) ** 2 < 2**64


class TestBeyondOnePrime:
    def test_cyclic_vertex_cone(self, monkeypatch):
        """A vertex cone of the d = 3 cyclic polytope with 12 vertices, as
        the polytopes benchmark draws it: 11 generators, and coefficients
        of C * p_K that take three balanced digits of the prime, all lifted
        from one reduction."""
        rng = random.Random(1)
        ts = sorted(rng.sample(range(-7, 8), 12))
        cone = tangent_cone(polytope_combinatorics([(t, t * t, t**3) for t in ts]), 0)
        system = build_system(cone)
        passes = []
        reduce_mod = interpolation._reduce_mod
        monkeypatch.setattr(interpolation, "_reduce_mod", lambda *args: passes.append(args) or reduce_mod(*args))
        solution = _solve_modular(system)
        p = _prime(system.unknowns + 1)
        assert len(passes) == 1 and passes[0][2] == p
        assert cone.num_generators == 11 and max(abs(c) for c in solution) > p * p // 2
        assert pk_via_interpolation(cone) == pk_via_triangulation(cone)
        assert solve_exact(system).coefficients == tuple(Fraction(c, system.scale) for c in solution)

    @pytest.mark.parametrize("d, n", [(2, 3), (3, 6)])
    def test_inconsistent_row_after_full_rank(self, d, n):
        """A copy of the last row with rhs + 1 and a diagonal avoiding
        generator 0, so it comes after full rank in either row order: the
        modular solve gives up and the exact reduction raises with the
        copy's diagonal and residual 1."""
        system = build_system(sample_cone(random.Random(4), d, n))
        last = system.rows[-1]
        extra = SystemRow((n,) * (d - 1), last.coefficients, last.rhs + 1)
        broken = InterpolationSystem(d, system.degree, (*system.rows, extra), scale=system.scale)
        assert _solve_modular(broken) is None
        with pytest.raises(InconsistentError) as exc:
            solve_exact(broken)
        assert exc.value.context == {"diagonal": (n + 1,) * (d - 1), "residual": 1}


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
    values there are scale * c_D^(n-d) times p_K's. The rational rows are
    built from the cross product and dot products of the rational
    generators, apart from the minor table that the rows, ``diagonal_for``
    and ``rhs_value`` all read."""

    @staticmethod
    def assert_rows_rescale_rational_rows(cone):
        system = build_system(cone)
        degree = cone.num_generators - cone.dimension
        assert system.scale == cone.scale == prod(cone.scales)
        for row in system.rows:
            dual = generalized_cross([cone.generators[i] for i in row.diagonal], cone.dimension)
            pairings = [dot(dual, w) for j, w in enumerate(cone.generators) if j not in row.diagonal]
            value = 0 if min(pairings) < 0 < max(pairings) else (1 if pairings[0] > 0 else -1) * prod(pairings)
            diagonal = diagonal_for(cone, row.diagonal)
            assert diagonal.dual == dual and rhs_value(cone, diagonal) == value
            factor = prod(cone.scales[i] for i in row.diagonal) ** degree
            assert row.coefficients == tuple(factor * c for c in veronese(dual, degree))
            assert row.rhs == cone.scale * factor * value
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
