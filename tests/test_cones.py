import random
import sys
import threading
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given, reject, settings, strategies as st

from conefourier import (
    Cone,
    DiagonalKind,
    classify_diagonal,
    diagonal_for,
    enumerate_diagonals,
    is_general_position,
    polytope_combinatorics,
    validate_cone,
    verify_vervan,
)
from conefourier.errors import (
    DimensionError,
    DuplicateRayError,
    NotPointedError,
    VerificationFailureError,
    ZeroGeneratorError,
)
from conefourier.cones import _basis_pairings, classify_pairings
from conefourier.feasibility import solve_nonnegative
from conefourier.geometry import _adjugate, _clear_denominators, _pairing_table, _primitive, determinant, dot, generalized_cross
from conefourier.geometry import maximal_minors
from conefourier.sampling import sample_cone
from conefourier.triangulation import pk_via_triangulation

from conftest import random_cones, rational_cone, rationals


def lp_redundant(generators):
    """The indices of the generators in the cone of the others, each found
    by one exact LP (``solve_nonnegative``), apart from the double
    description that ``validate_cone`` reads."""
    redundant = []
    for i, g in enumerate(generators):
        others = [w for j, w in enumerate(generators) if j != i]
        columns = [[w[k] for w in others] for k in range(len(g))]
        if others and solve_nonnegative(columns, g) is not None:
            redundant.append(i)
    return tuple(redundant)


def contains_line(generators):
    """Gordan's alternative, by one exact LP (``solve_nonnegative``) apart
    from the double description: the cone contains a line exactly when
    some lambda >= 0 with sum lambda_j = 1 has sum lambda_j w_j = 0."""
    d = len(generators[0])
    rows = [[w[k] for w in generators] for k in range(d)] + [[1] * len(generators)]
    return solve_nonnegative(rows, [0] * d + [1]) is not None


@st.composite
def drawn_generators(draw, lines=False):
    """Generators in d = 1..4 of a drawn rank r <= d (r >= 2 from d = 2, as
    n >= d distinct rays on one line are not pointed): combinations of r
    drawn integer vectors with a positive first coefficient, so the cone is
    pointed when those are independent, and small coefficients, so that
    interior and coplanar generators are common; each is divided by a drawn
    denominator. With ``lines``, the first coefficient may take either sign
    and the negative of the first generator may be added, so cones with a
    line are common too. Zero vectors and repeated rays are dropped."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(min(d, 2), d))
    basis = [draw(st.tuples(*[st.integers(-3, 3)] * d)) for _ in range(r)]
    low = -2 if lines and draw(st.booleans()) else 1
    drawn = []
    for _ in range(draw(st.integers(d, d + 4))):
        c = [draw(st.integers(low, 3)), *(draw(st.integers(-2, 2)) for _ in range(r - 1))]
        denominator = draw(st.integers(1, 3))
        drawn.append(tuple(Fraction(sum(ck * b[k] for ck, b in zip(c, basis)), denominator) for k in range(d)))
    if lines and draw(st.booleans()):
        drawn.append(tuple(-c for c in drawn[0]))
    generators, rays = [], set()
    for g in drawn:
        if any(g):
            ray = _primitive(_clear_denominators(g)[0])
            if ray not in rays:
                rays.add(ray)
                generators.append(g)
    return d, generators


class TestConstruction:
    def test_rejects_zero_generator(self):
        with pytest.raises(ZeroGeneratorError):
            Cone((0, 0), ((1, 0), (0, 0)))

    def test_rejects_duplicate_rays(self):
        with pytest.raises(DuplicateRayError):
            Cone((0, 0), ((1, 2), (2, 4)))

    @pytest.mark.parametrize(
        "generators, pair",
        [
            # a, b, c, 2b, 3a: a scan that stops at the first repeat finds (2, 4)
            (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (3, 0, 0)), (1, 5)),
            (((1, 2, 3), (Fraction(1, 3), Fraction(2, 3), 1), (1, 1, 1)), (1, 2)),
            (((0, 0, 1), (1, 1, 1), (2, 2, 2), (0, 0, 5)), (1, 4)),
        ],
    )
    def test_duplicate_ray_names_the_first_pair(self, generators, pair):
        with pytest.raises(DuplicateRayError) as err:
            Cone((0, 0, 0), generators)
        assert err.value.context == {"indices": pair}
        assert err.value.message == f"generators {pair[0]} and {pair[1]} span the same ray"

    def test_opposite_rays_are_not_duplicates(self):
        cone = Cone((0, 0), ((1, 0), (-1, 0)))
        assert cone.num_generators == 2

    def test_rejects_too_few_generators(self):
        with pytest.raises(DimensionError):
            Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0)))

    def test_rejects_ragged_generators(self):
        with pytest.raises(DimensionError):
            Cone((0, 0), ((1, 0), (0, 1, 2)))


@pytest.mark.parametrize(
    "d, n, message", [(1, 3, "sampler supports dimension >= 2"), (3, 2, "need at least d generators")]
)
def test_sampler_refuses_impossible_sizes(d, n, message):
    with pytest.raises(ValueError) as err:
        sample_cone(random.Random(1), d, n)
    assert str(err.value) == message


class TestValidation:
    def test_first_quadrant_pointed(self):
        report = validate_cone(Cone((0, 0), ((1, 0), (0, 1))))
        assert report.pointed
        assert all(dot(w, report.witness) >= 1 for w in ((1, 0), (0, 1)))
        assert report.general_position
        assert report.redundant_generators == ()

    def test_line_not_pointed(self):
        with pytest.raises(NotPointedError):
            validate_cone(Cone((0, 0), ((1, 0), (-1, 0))))

    def test_square_cone_pointed(self, square_cone):
        report = validate_cone(square_cone)
        assert all(dot(w, report.witness) >= 1 for w in square_cone.generators)
        assert report.general_position
        assert report.redundant_generators == ()

    def test_fan_flags_redundant_ray(self, fan_cone):
        report = validate_cone(fan_cone)
        # generator 2 = generator 1 + generator 3
        assert report.redundant_generators == (1,)
        assert report.general_position

    @pytest.mark.parametrize(
        "generators, redundant",
        [
            ([(3,)], ()),  # d = 1
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], (2,)),  # rank 2 in d = 3
            ([(1, 0, 0), (0, 1, 0), (-1, 2, 0)], (1,)),  # the third cuts a facet of the first two
            ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (Fraction(1, 2), Fraction(1, 3), 0)], (2, 3)),
            ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)], (4,)),  # apex ray of a square pyramid
            ([(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)], ()),
            ([(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (1, 1, 0, 2), (0, 0, 1, 1)], (4,)),
        ],
    )
    def test_redundant_generators_by_hand(self, generators, redundant):
        assert lp_redundant(generators) == redundant
        assert validate_cone(Cone((0,) * len(generators[0]), generators)).redundant_generators == redundant

    @settings(max_examples=200)
    @given(drawn_generators(lines=True))
    def test_not_pointed_exactly_when_the_lp_finds_a_line(self, drawn):
        d, generators = drawn
        if len(generators) < d:
            reject()
        cone = Cone((0,) * d, generators)
        if contains_line(cone.generators):
            with pytest.raises(NotPointedError):
                validate_cone(cone)
        else:
            witness = validate_cone(cone).witness
            assert min(dot(w, witness) for w in cone.generators) == 1

    @settings(max_examples=150)
    @given(drawn_generators())
    def test_redundant_generators_match_the_lp(self, drawn):
        d, generators = drawn
        if len(generators) < d or contains_line(generators):
            reject()
        cone = Cone((0,) * d, generators)
        assert validate_cone(cone).redundant_generators == lp_redundant(cone.generators)

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 6), (4, 7), (4, 9), (5, 8)])
    @pytest.mark.parametrize("rational", [False, True])
    def test_redundant_generators_match_the_lp_on_seeded_cones(self, d, n, rational):
        rng = random.Random(d * 100 + n)
        cone = (rational_cone if rational else sample_cone)(rng, d, n)
        assert validate_cone(cone).redundant_generators == lp_redundant(cone.generators)

    @pytest.mark.parametrize(
        "generators",
        [((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1))],
        ids=["quadrant", "rank-2-in-d-3", "square-pyramid"],
    )
    def test_validation_eliminates_the_generators_once(self, generators, monkeypatch):
        """The double description starts from the cone's own elimination,
        the one its dual basis reads, so a new cone's generators are
        eliminated once however many of its readers run."""
        import conefourier.cones as cones

        calls = []

        def counting(rows):
            calls.append(rows)
            return _adjugate(rows)

        monkeypatch.setattr(cones, "_adjugate", counting)
        cone = Cone((0,) * len(generators[0]), generators)
        validate_cone(cone)
        cone._dual_basis
        assert calls == [cone.integer_generators]

    @pytest.mark.parametrize(
        "run",
        [
            lambda: validate_cone(Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)))),
            lambda: polytope_combinatorics(
                [[a if bit else 0 for a, bit in zip((2, Fraction(3, 2), 5, Fraction(7, 3)), bits)]
                 for bits in product((0, 1), repeat=4)],
                allow_nonsimplicial=True,
            ),
        ],
        ids=["rank-2-cone", "rational-4-box"],
    )
    def test_double_description_makes_no_cross_product(self, run, monkeypatch):
        """The first facet normals are the columns of one adjugate, so
        neither a rank-deficient cone nor a non-simplicial box asks for a
        cross product."""
        expected = run()
        calls = []

        def counting(vectors, dimension=None):
            calls.append(vectors)
            return generalized_cross(vectors, dimension)

        for name, module in list(sys.modules.items()):
            if name.startswith("conefourier") and hasattr(module, "generalized_cross"):
                monkeypatch.setattr(module, "generalized_cross", counting)
        assert run() == expected
        assert calls == []


class TestGeneralPosition:
    def test_fan_is_generic(self, fan_cone):
        assert is_general_position(fan_cone)

    def test_square_cone_is_generic(self, square_cone):
        assert is_general_position(square_cone)

    def test_coplanar_triple_is_not(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        assert not is_general_position(cone)


class TestDiagonals:
    def test_singletons_in_2d(self, fan_cone):
        diagonals = enumerate_diagonals(fan_cone)
        assert [d.indices for d in diagonals] == [(0,), (1,), (2,)]

    def test_pairs_in_3d(self, square_cone):
        diagonals = enumerate_diagonals(square_cone)
        assert len(diagonals) == 6
        assert [d.indices for d in diagonals] == sorted(combinations(range(4), 2))

    def test_square_cone_dual(self, square_cone):
        assert diagonal_for(square_cone, (0, 2)).dual == (0, -2, 0)

    def test_diagonal_rejects_bad_indices(self, square_cone):
        with pytest.raises(DimensionError) as err:
            diagonal_for(square_cone, (0, 4))
        assert err.value.context == {"diagonal": (1, 5), "generators": 4}
        with pytest.raises(DimensionError):
            diagonal_for(square_cone, (0, 1, 2))
        with pytest.raises(DimensionError) as err:
            diagonal_for(square_cone, (2, 2))
        assert err.value.message == "repeated index in diagonal (3, 3)"
        assert err.value.context == {"diagonal": (3, 3), "generators": 4}


class TestClassification:
    def test_fan_first_ray_extremal(self, fan_cone):
        cls = classify_diagonal(fan_cone, diagonal_for(fan_cone, (0,)))
        assert cls.kind is DiagonalKind.EXTREMAL and cls.sign == 1

    def test_fan_middle_ray_interior(self, fan_cone):
        cls = classify_diagonal(fan_cone, diagonal_for(fan_cone, (1,)))
        assert cls.kind is DiagonalKind.INTERIOR

    def test_fan_last_ray_extremal_negative(self, fan_cone):
        cls = classify_diagonal(fan_cone, diagonal_for(fan_cone, (2,)))
        assert cls.kind is DiagonalKind.EXTREMAL and cls.sign == -1

    def test_square_cone_diagonal_interior(self, square_cone):
        cls = classify_diagonal(square_cone, diagonal_for(square_cone, (0, 2)))
        assert cls.kind is DiagonalKind.INTERIOR

    def test_degenerate_on_dependent_rays(self):
        cone = Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)))
        cls = classify_diagonal(cone, diagonal_for(cone, (0, 1)))
        # generator 3 lies in the plane of the first two
        assert cls.kind is DiagonalKind.DEGENERATE

    @given(cone=random_cones())
    def test_generic_cones_have_no_degenerate_diagonals(self, cone):
        for diagonal in enumerate_diagonals(cone):
            assert classify_diagonal(cone, diagonal).kind is not DiagonalKind.DEGENERATE

    @given(cone=random_cones(), data=st.data())
    def test_class_invariant_under_positive_rescaling(self, cone, data):
        index = data.draw(st.integers(0, cone.num_generators - 1))
        lam = data.draw(st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 2)]))
        scaled = Cone(
            cone.apex,
            tuple(
                tuple(lam * c for c in g) if j == index else g for j, g in enumerate(cone.generators)
            ),
        )
        for before, after in zip(enumerate_diagonals(cone), enumerate_diagonals(scaled)):
            assert classify_diagonal(cone, before) == classify_diagonal(scaled, after)

    @given(cone=random_cones(), data=st.data())
    def test_class_invariant_under_reordering(self, cone, data):
        perm = data.draw(st.permutations(range(cone.num_generators)))
        reordered = Cone(cone.apex, tuple(cone.generators[i] for i in perm))
        position = {old: new for new, old in enumerate(perm)}
        for diagonal in enumerate_diagonals(cone):
            image = diagonal_for(reordered, tuple(sorted(position[i] for i in diagonal.indices)))
            assert (
                classify_diagonal(cone, diagonal).kind
                is classify_diagonal(reordered, image).kind
            )


class TestMinorTable:
    DEGENERATE = (
        # generator 3 in the plane of the first two
        Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))),
        # rank 2 in dimension 3: every dual pairing and minor is 0
        Cone((0, 0, 0), ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))),
        Cone((0, 0), ((1, 0), (Fraction(1, 2), Fraction(3, 4)), (0, 1))),
    )

    @staticmethod
    def assert_pairings_match_duals(cone):
        """integer_pairings against dot products with the cross product of
        the rational generators: <cross(u_D), u_j> = c_D m_j <cross(w_D), w_j>,
        c_D the product of the diagonal's scales."""
        for indices in combinations(range(cone.num_generators), cone.dimension - 1):
            dual = generalized_cross([cone.generators[i] for i in indices], cone.dimension)
            c_d = prod(cone.scales[i] for i in indices)
            off = [j for j in range(cone.num_generators) if j not in indices]
            expected = tuple(c_d * cone.scales[j] * dot(dual, cone.generators[j]) for j in off)
            assert cone.integer_pairings(indices) == expected

    @given(cone=random_cones(dims=(2, 3, 4)))
    def test_pairings_match_duals(self, cone):
        self.assert_pairings_match_duals(cone)

    @pytest.mark.parametrize("index", range(len(DEGENERATE)))
    def test_pairings_match_duals_on_degenerate_cones(self, index):
        self.assert_pairings_match_duals(self.DEGENERATE[index])

    def test_minor_is_the_determinant(self, square_cone):
        for idx in combinations(range(4), 3):
            rows = [square_cone.generators[i] for i in idx]
            assert square_cone.maximal_minor(idx) == determinant(rows)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_minor_is_the_determinant_on_rational_cones(self, seed):
        cone = rational_cone(random.Random(seed), 4, 7)
        assert cone.scale > 1
        for idx in combinations(range(7), 4):
            integer = determinant([cone.integer_generators[i] for i in idx])
            assert cone.integer_minor(idx) == integer
            rows = [cone.generators[i] for i in idx]
            assert cone.maximal_minor(idx) == determinant(rows) == Fraction(integer, prod(cone.scales[i] for i in idx))
        self.assert_pairings_match_duals(cone)

    def test_rational_box_table_is_the_determinants(self):
        """The cone over a rational 4-box, whose lifted vertices make a
        zero-heavy (5, 16) table: every entry, read through the cone, is the
        determinant of its rows in the sorted subset's order."""
        sides = (Fraction(2), Fraction(3, 2), Fraction(5), Fraction(7, 3))
        vertices = [tuple(s if bit else 0 for s, bit in zip(sides, bits)) for bits in product((0, 1), repeat=4)]
        cone = Cone((0,) * 5, tuple((1, *v) for v in vertices))
        assert cone.scale > 1
        for idx in combinations(range(16), 5):
            integer = determinant([cone.integer_generators[i] for i in idx])
            assert cone.integer_minor(idx) == integer
            assert cone.maximal_minor(idx) == determinant([cone.generators[i] for i in idx])
        assert not is_general_position(cone)

    def test_minor_computed_once(self, square_cone, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(rows)
            return maximal_minors(rows)

        monkeypatch.setattr("conefourier.cones.maximal_minors", counting)
        assert is_general_position(square_cone)
        assert len(calls) == 1
        for diagonal in enumerate_diagonals(square_cone):
            classify_diagonal(square_cone, diagonal)
        assert square_cone.maximal_minor([0, 1, 2]) == 2
        assert len(calls) == 1

    def test_table_leaves_equality_and_hash_alone(self, square_cone):
        fresh = Cone(square_cone.apex, square_cone.generators)
        is_general_position(square_cone)
        square_cone.integer_pairings((0, 1))
        assert square_cone == fresh and hash(square_cone) == hash(fresh) and repr(square_cone) == repr(fresh)

    def test_shared_cone_across_threads(self):
        sampled = sample_cone(random.Random(6), 3, 6)
        expected = pk_via_triangulation(sampled)
        shared = Cone(sampled.apex, sampled.generators)  # with an empty table
        results = []

        def work():
            results.append(pk_via_triangulation(shared))

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


class TestPairingTable:
    """integer_pairings reads the one per-shape table of slots and signs
    (geometry._pairing_table), the table the sweep scatters by, and the
    duals read single entries off its tuples (_basis_pairings)."""

    @staticmethod
    def assert_pairings_are_determinants(cone):
        rows = cone.integer_generators
        for members in combinations(range(cone.num_generators), cone.dimension - 1):
            expected = tuple(
                determinant([rows[i] for i in members] + [rows[j]])
                for j in range(cone.num_generators)
                if j not in members
            )
            assert cone.integer_pairings(members) == expected
            assert all(type(value) is int for value in expected)

    @given(
        d=st.integers(min_value=2, max_value=6),
        extra=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=10**9),
        rational=st.booleans(),
    )
    @settings(max_examples=25)
    def test_pairings_are_determinants(self, d, extra, seed, rational):
        make = rational_cone if rational else sample_cone
        try:
            cone = make(random.Random(seed), d, d + extra)
        except (ZeroGeneratorError, DuplicateRayError):  # moved generators can collide
            reject()
        self.assert_pairings_are_determinants(cone)

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 6), (4, 8), (5, 9)])
    @pytest.mark.parametrize("rational", [False, True])
    def test_one_pairing_is_its_entry(self, d, n, rational):
        """The duals read one pairing per basis member off the tuple: the
        entry det(u_D..., u_j) for j off D, and 0 for j in D."""
        cone = (rational_cone if rational else sample_cone)(random.Random(d * n), d, n)
        rows = cone.integer_generators
        for members in combinations(range(n), d - 1):
            expected = [determinant([rows[i] for i in members] + [rows[j]]) for j in range(n)]
            assert _basis_pairings(members, cone.integer_pairings(members), range(n)) == expected

    def test_cones_of_one_shape_share_one_table(self):
        """One build per level (7, 1), (7, 2), (7, 3): the first cone's sweep
        and pairings build them, the second cone's only read them."""
        sampled = [sample_cone(random.Random(seed), 3, 7) for seed in (1, 2)]
        _pairing_table.cache_clear()
        first, second = (Cone(cone.apex, cone.generators) for cone in sampled)
        assert first.integer_pairings((0, 1)) != second.integer_pairings((0, 1))
        for cone in (first, second):
            for members in combinations(range(7), 2):
                cone.integer_pairings(members)
        info = _pairing_table.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        assert info.hits + info.misses == 2 * (1 + 3) + 2 * 21


class TestBadIndices:
    """A tuple that is not a sorted subset of the right size is a
    DimensionError with 1-based context, from each reader of the table."""

    CONE = sample_cone(random.Random(4), 4, 6)

    @pytest.mark.parametrize(
        "indices",
        [
            (1, 0, 2, 3),
            (0, 0, 1, 2),
            (0, 1, 2, 9),
            (-1, 0, 1, 2),
            (0, 1, 2),
            (0, 1, 2, 3, 4),
            (0, 1, 3, 2),  # unsorted only in the last place
            (0, 1, 2, 6),  # last index = n
        ],
    )
    @pytest.mark.parametrize("method", ["integer_minor", "maximal_minor"])
    def test_minors(self, method, indices):
        with pytest.raises(DimensionError) as err:
            getattr(self.CONE, method)(indices)
        assert err.value.context == {"indices": tuple(i + 1 for i in indices), "size": 4, "generators": 6}

    @pytest.mark.parametrize("indices", [(2, 0, 1), (0, 0, 1), (0, 1, 9), (-1, 0, 1), (0, 1), (0, 1, 2, 3)])
    def test_pairings(self, indices):
        with pytest.raises(DimensionError) as err:
            self.CONE.integer_pairings(indices)
        assert err.value.context == {"indices": tuple(i + 1 for i in indices), "size": 3, "generators": 6}
        wire = tuple(i + 1 for i in indices)
        assert err.value.message == f"indices {wire} are not a sorted 3-subset of the 6 generators"

    @pytest.mark.parametrize("indices", [(2, 0, 1), (0, 0, 1), (0, 1, 9), (-1, 0, 1), (0, 1), (0, 1, 2, 3)])
    def test_duals(self, indices):
        with pytest.raises(DimensionError) as err:
            self.CONE.integer_dual(indices)
        assert err.value.context == {"indices": tuple(i + 1 for i in indices), "size": 3, "generators": 6}

    def test_duals_of_a_cone_of_lower_rank(self):
        """Checked before the cross-product fallback, which would take any
        rows it is given."""
        cone = TestMinorTable.DEGENERATE[1]
        with pytest.raises(DimensionError) as err:
            cone.integer_dual((1, 0))
        assert err.value.context == {"indices": (2, 1), "size": 2, "generators": 4}

    def test_dimension_one(self):
        """d = 1: each minor is a generator's integer value, read from the
        table entry of the empty prefix."""
        cone = Cone((0,), ((Fraction(3, 2),), (-5,)))
        assert [cone.integer_minor((j,)) for j in range(2)] == [3, -5]
        assert cone.maximal_minor((0,)) == Fraction(3, 2)
        for indices in [(2,), (-1,), ()]:
            with pytest.raises(DimensionError) as err:
                cone.integer_minor(indices)
            assert err.value.context == {"indices": tuple(i + 1 for i in indices), "size": 1, "generators": 2}

    def test_lists_are_read_as_tuples(self):
        assert self.CONE.integer_minor([0, 1, 2, 3]) == self.CONE.integer_minor((0, 1, 2, 3))
        assert self.CONE.integer_pairings([0, 1, 2]) == self.CONE.integer_pairings((0, 1, 2))


class TestDiagonalDual:
    """diagonal_for reads the dual off the minor table (integer_dual over
    c_D); it must equal the cross product of the rational generators."""

    @staticmethod
    def assert_duals_match_rational_cross_products(cone):
        diagonals = enumerate_diagonals(cone)
        assert [diagonal.indices for diagonal in diagonals] == list(
            combinations(range(cone.num_generators), cone.dimension - 1)
        )
        for diagonal in diagonals:
            expected = generalized_cross([cone.generators[i] for i in diagonal.indices], cone.dimension)
            assert diagonal.dual == expected
            assert diagonal_for(cone, reversed(diagonal.indices)) == diagonal
            if all(cone.scales[i] == 1 for i in diagonal.indices):
                assert all(type(c) is int for c in diagonal.dual)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_integer_cones(self, d, seed):
        cone = sample_cone(random.Random(seed), d, d + 3)
        self.assert_duals_match_rational_cross_products(cone)

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 6), (4, 7)])
    def test_rational_cones(self, d, n):
        cone = rational_cone(random.Random(d), d, n)
        assert cone.scale > 1
        self.assert_duals_match_rational_cross_products(cone)

    @pytest.mark.parametrize("index", range(len(TestMinorTable.DEGENERATE)))
    def test_degenerate_cones(self, index):
        self.assert_duals_match_rational_cross_products(TestMinorTable.DEGENERATE[index])


def assert_duals_match_cross_products(cone):
    """integer_dual equals generalized_cross of the integer generators on
    every diagonal, degenerate ones included; returns the diagonals'
    classes."""
    kinds = []
    for indices in combinations(range(cone.num_generators), cone.dimension - 1):
        rows = [cone.integer_generators[i] for i in indices]
        dual = cone.integer_dual(indices)
        assert dual == generalized_cross(rows, cone.dimension)
        assert all(type(c) is int for c in dual)
        kinds.append(classify_pairings(cone.integer_pairings(indices)).kind)
    return kinds


integer_cones = st.integers(min_value=2, max_value=4).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * d),
        min_size=d,
        max_size=d + 3,
        unique=True,
    )
)


@st.composite
def low_rank_generators(draw, dims=(1, 5), below=0, extra=3):
    """d + 0..``extra`` generators in dimension d in ``dims``, each an
    integer combination of r <= d - ``below`` drawn rows, int or rational:
    rank r or below."""
    d = draw(st.integers(*dims))
    entry = draw(st.sampled_from([st.integers(-4, 4), rationals]))
    spanning = [[draw(entry) for _ in range(d)] for _ in range(draw(st.integers(1, d - below)))]
    generators = []
    for _ in range(d + draw(st.integers(0, extra))):
        weights = [draw(st.integers(-3, 3)) for _ in spanning]
        generators.append(tuple(sum(w * row[k] for w, row in zip(weights, spanning)) for k in range(d)))
    return generators


class TestIntegerDual:
    """Cone.integer_dual reads each dual off the minor table by Cramer's
    rule on the first nonsingular d-subset S of generators."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_cones(self, d, seed):
        cone = sample_cone(random.Random(seed), d, d + 4)
        assert set(assert_duals_match_cross_products(cone)) <= {DiagonalKind.EXTREMAL, DiagonalKind.INTERIOR}
        assert cone._dual_basis[0] == tuple(range(d))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rational_cones(self, seed):
        cone = rational_cone(random.Random(seed), 4, 7)
        assert cone.scale > 1
        assert_duals_match_cross_products(cone)

    def test_first_generators_dependent(self):
        """The first three generators lie in a plane, so S = (0, 1, 3);
        generators 1 and 4 are opposite, so diagonal (1, 4) has dual 0."""
        cone = Cone(
            (0, 0, 0),
            ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, -1, 0), (1, 2, 3)),
        )
        kinds = assert_duals_match_cross_products(cone)
        assert cone._dual_basis[0] == (0, 1, 3)
        assert kinds.count(DiagonalKind.DEGENERATE) >= 2
        assert cone.integer_dual((1, 4)) == (0, 0, 0)

    def test_lower_rank_cone_falls_back_to_the_cross_product(self):
        cone = TestMinorTable.DEGENERATE[1]  # rank 2 in dimension 3
        assert cone._dual_basis is None
        assert_duals_match_cross_products(cone)
        assert cone.integer_dual((0, 1)) == (0, 0, 1)

    @pytest.mark.parametrize("d", [3, 4])
    def test_coordinates_near_2_to_the_70(self, d):
        rng = random.Random(d)
        base = sample_cone(rng, d, d + 3)
        cone = Cone(base.apex, tuple(tuple(2**70 * c + rng.randint(-9, 9) for c in g) for g in base.generators))
        assert max(abs(c) for g in cone.integer_generators for c in g).bit_length() > 70
        assert_duals_match_cross_products(cone)

    @pytest.mark.parametrize("generators", [((5,),), ((2,), (-3,)), ((Fraction(-1, 4),), (7,))])
    def test_dimension_one(self, generators):
        cone = Cone((0,), generators)
        assert cone.integer_dual(()) == generalized_cross([], 1) == (1,)

    @given(generators=low_rank_generators())
    def test_dual_basis_is_the_first_nonzero_minor(self, generators):
        """The basis, read without filling the table, is the first d-subset
        in ``combinations`` order with a nonzero minor, read off the table,
        and None when the rank is below d; rows over |det U_S| is U_S^-1."""
        d = len(generators[0])
        try:
            cone = Cone((0,) * d, generators)
        except (ZeroGeneratorError, DuplicateRayError):
            return
        basis = cone._dual_basis
        assert "_minors" not in vars(cone)
        subsets = combinations(range(cone.num_generators), d)
        first = next((s for s, m in zip(subsets, cone._minors) if m), None)
        if first is None:
            assert basis is None
            return
        subset, denominator, inverse = basis
        assert subset == first
        rows = [cone.integer_generators[i] for i in subset]
        assert denominator == abs(determinant(rows))
        for i in range(d):
            for j in range(d):
                assert sum(inverse[i][k] * rows[k][j] for k in range(d)) == (denominator if i == j else 0)

    @given(generators=integer_cones)
    def test_random_integer_cones(self, generators):
        try:
            cone = Cone((0,) * len(generators[0]), generators)
        except (ZeroGeneratorError, DuplicateRayError):
            return
        assert_duals_match_cross_products(cone)


def vervan_outcome(cone, family):
    """``verify_vervan``'s record, or its error's message and context."""
    try:
        return verify_vervan(cone, family)
    except VerificationFailureError as err:
        return err.message, err.context


class TestRankBelowD:
    """A cone of rank below d has an all-zero minor table, which it reads
    off the one elimination of ``_dual_basis`` without the Laplace sweep;
    every reader of the table then answers with no rank case of its own.
    (In d = 1 every nonzero generator has rank 1.)"""

    @settings(max_examples=60)
    @given(generators=low_rank_generators(dims=(2, 6), below=1, extra=2), data=st.data())
    def test_table_is_all_zeros_without_a_sweep(self, generators, data):
        d = len(generators[0])
        try:
            cone = Cone((0,) * d, generators)
            twin = Cone((0,) * d, generators)
        except (ZeroGeneratorError, DuplicateRayError):
            return
        n = cone.num_generators
        vars(twin)["_minors"] = maximal_minors(twin.integer_generators)  # filled by the sweep
        family = data.draw(st.permutations(list(combinations(range(n), d - 1))))[: comb(n - 1, d - 1)]
        calls = []

        def counting(rows):
            calls.append(rows)
            return maximal_minors(rows)

        units = [[int(i == k) for i in range(d)] for k in range(d)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("conefourier.cones.maximal_minors", counting)
            assert not is_general_position(cone)
            for indices in combinations(range(n), d):
                assert cone.integer_minor(indices) == determinant([cone.integer_generators[i] for i in indices]) == 0
            for indices in combinations(range(n), d - 1):
                assert not any(cone.integer_pairings(indices))
                rows = [cone.integer_generators[i] for i in indices]
                assert cone.integer_dual(indices) == tuple(determinant([*rows, e]) for e in units)
            assert vervan_outcome(cone, family) == vervan_outcome(twin, family)
        assert calls == []
