import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from conefourier import (
    diagonal_for,
    fills,
    fplus,
    minor,
    multiplicity,
    null_pairing,
    vanishing_witness,
    verify_vervan,
)
from conefourier.errors import DimensionError, VerificationFailureError
from conefourier.geometry import determinant, dot, generalized_cross, veronese
from conefourier.sampling import sample_cone, sample_family
from conefourier.serialize import vervan_record_to_json
from conefourier.triangulation import expand_linear_forms
from conefourier.cones import Cone
from conefourier.vervan import normalize_family

from conftest import random_cones, rational_cone, vectors


FAM_FILLING = [(0, 1), (1, 2), (2, 3)]
FAM_NON_FILLING = [(0, 1), (0, 2), (0, 3)]


# Seed 404, first sampled cone (n=5, d=3), 8th family: generator 2 lies
# on 4 > C(3, 1) members, an overloaded vertex star.
FAM_STAR_WITNESS = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
# Seed 404, 8th sampled cone (n=6, d=3), 6th family: no generator lies on
# more than C(4, 1) = 4 members, but 8 members meet T = {0, 1}, above the
# bound N - C(3, 2) = 7 for |T| = 2.
FAM_PAIR_WITNESS = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5)]
# d=4, n=5: fills and breaks no bound, yet the duals of the three members
# through {0, 1} lie in the plane (w_0, w_1)^perp, so the minor is 0.
FAM_FLAT_ZERO = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)]


def _seed_404_draws(index):
    """The index-th cone and its ten families from criterion 4's stream."""
    rng = random.Random(404)
    for i in range(index + 1):
        cone = sample_cone(rng, 3, 5 + i % 2)
        families = [sample_family(rng, cone) for _ in range(10)]
    return cone, families


class TestMultiplicity:
    def test_two_facets_present(self):
        assert multiplicity(FAM_FILLING, (0, 1, 2)) == 2

    def test_one_facet_present(self):
        assert multiplicity(FAM_FILLING, (0, 1, 3)) == 1

    def test_uncovered_simplex(self):
        assert multiplicity(FAM_NON_FILLING, (1, 2, 3)) == 0

    @given(cone=random_cones(dims=(2, 3), extras=(1, 2)), data=st.data())
    def test_total_multiplicity_count(self, cone, data):
        n, d = cone.num_generators, cone.dimension
        fam = sample_family(random.Random(data.draw(st.integers(0, 10**6))), cone)
        total = sum(multiplicity(fam, E) for E in combinations(range(n), d))
        assert total == comb(n - 1, d - 1) * (n - d + 1)


class TestVanishingWitness:
    def test_non_filling_family_has_witness(self):
        assert vanishing_witness(FAM_NON_FILLING, 4)

    def test_filling_family_has_none(self):
        assert vanishing_witness(FAM_FILLING, 4) == ()

    def test_pair_witness_without_overloaded_star(self):
        counts = [sum(i in m for m in FAM_PAIR_WITNESS) for i in range(6)]
        assert max(counts) == comb(4, 1)
        assert vanishing_witness(FAM_PAIR_WITNESS, 6) == (0, 1)


class TestFills:
    def test_filling_family(self):
        assert fills(FAM_FILLING, 4)

    def test_non_filling_family(self):
        assert not fills(FAM_NON_FILLING, 4)

    def test_two_singletons_cover_all_pairs(self):
        assert fills([(0,), (1,)], 3)

    def test_empty_family_is_domain_error(self, square_cone):
        with pytest.raises(DimensionError, match="empty"):
            fills([], 4)
        with pytest.raises(DimensionError, match="empty"):
            vanishing_witness([], 4)
        with pytest.raises(DimensionError, match="empty"):
            verify_vervan(square_cone, [])


class TestMinor:
    def test_non_filling_minor_vanishes(self, square_cone):
        assert minor(square_cone, FAM_NON_FILLING) == 0

    def test_filling_minor_value(self, square_cone):
        assert minor(square_cone, FAM_FILLING) == 4

    def test_family_size_enforced(self, square_cone):
        with pytest.raises(DimensionError):
            minor(square_cone, [(0, 1), (1, 2)])

    def test_repeated_diagonal_rejected(self, square_cone):
        with pytest.raises(DimensionError):
            minor(square_cone, [(0, 1), (1, 0), (2, 3)])

    @pytest.mark.parametrize("rational", [False, True])
    def test_minor_matches_cross_product_rows(self, rational, monkeypatch):
        """The minor off the table equals the Fraction determinant of the
        Veronese images of the rational generators' cross products; the
        determinant it takes is all int, on a rational cone too."""
        rng = random.Random(5)
        cone = sample_cone(rng, 3, 6)
        if rational:
            moved = (tuple(c / rng.randint(1, 5) + Fraction(1, 3) for c in g) for g in cone.generators)
            cone = Cone(cone.apex, tuple(moved))
            assert cone.scale > 1
        taken = []

        def recording(rows):
            taken.append(rows)
            return determinant(rows)

        monkeypatch.setattr("conefourier.vervan.determinant", recording)
        nonzero = 0
        for family in (normalize_family(sample_family(rng, cone)) for _ in range(8)):
            rows = [veronese(generalized_cross([cone.generators[i] for i in member], 3), 3) for member in family]
            assert all(type(c) is Fraction for row in rows for c in row)
            expected = determinant(rows)
            assert minor(cone, family) == expected and type(minor(cone, family)) is Fraction
            nonzero += expected != 0
            assert all(type(c) is int for row in taken[-1] for c in row)
        assert nonzero >= 2


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_minor_on_rational_cones_matches_the_fraction_path(self, seed):
        """On cones whose generators have denominators, the int determinant
        over prod c_D^(n-d) equals the determinant of the Fraction duals'
        Veronese rows."""
        rng = random.Random(seed)
        cone = rational_cone(rng, 4, 7)
        assert cone.scale > 1
        for _ in range(3):
            family = normalize_family(sample_family(rng, cone))
            rows = [veronese(diagonal_for(cone, member).dual, 3) for member in family]
            assert minor(cone, family) == determinant(rows)

    def test_minor_checks_each_diagonal(self, square_cone):
        with pytest.raises(DimensionError, match="out of range"):
            minor(square_cone, [(0, 1), (1, 2), (2, 8)])


class TestVerify:
    def test_square_cone_non_filling(self, square_cone):
        record = verify_vervan(square_cone, FAM_NON_FILLING)
        assert not record.fills and record.minor == 0 and record.sign == 0

    def test_square_cone_filling(self, square_cone):
        record = verify_vervan(square_cone, FAM_FILLING)
        assert record.fills
        assert abs(record.minor) == record.expected_abs == 4
        mults = {simplex: mult for simplex, mult, _ in record.multiplicities}
        assert mults == {(0, 1, 2): 2, (0, 1, 3): 1, (0, 2, 3): 1, (1, 2, 3): 2}

    def test_fan_pair_family(self, fan_cone):
        record = verify_vervan(fan_cone, [(0,), (2,)])
        assert record.fills
        assert record.minor == 1 and record.expected_abs == 1

    def test_square_cone_exhaustive(self, square_cone):
        diagonals = list(combinations(range(4), 2))
        filling = 0
        for fam in combinations(diagonals, 3):
            record = verify_vervan(square_cone, fam)
            filling += record.fills
        # per simplex E exactly one family avoids all three of its facets
        assert filling == 16

    @given(cone=random_cones(dims=(2, 3), extras=(1, 2)), data=st.data())
    def test_random_families(self, cone, data):
        fam = sample_family(random.Random(data.draw(st.integers(0, 10**6))), cone)
        record = verify_vervan(cone, fam)  # d <= 3: the prediction is complete
        if not record.fills:
            assert record.minor == 0 and record.witness
        elif record.minor == 0:
            assert record.witness
        else:
            assert abs(record.minor) == record.expected_abs

    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_d3(self, n):
        cone = sample_cone(random.Random(n), 3, n)
        diagonals = list(combinations(range(n), 2))
        zero = 0
        for fam in combinations(diagonals, comb(n - 1, 2)):
            record = verify_vervan(cone, fam)  # raises on any mismatch
            zero += record.fills and record.minor == 0
        # at n=5 a filling zero minor needs a star of degree 4: 5 centres
        # times the 3 four-cycles left as the uncovered edges; n=4 has none
        assert zero == (0 if n == 4 else 15)

    @pytest.mark.parametrize(
        "cone_index, family_index, family, witness",
        [(0, 7, FAM_STAR_WITNESS, [3]), (7, 5, FAM_PAIR_WITNESS, [1, 2])],
    )
    def test_witness_predicts_zero(self, cone_index, family_index, family, witness):
        cone, families = _seed_404_draws(cone_index)
        assert list(families[family_index]) == family
        record = verify_vervan(cone, family)
        assert record.fills and record.minor == 0 and record.expected_abs == 0
        assert vervan_record_to_json(record)["witness"] == witness

    def test_flat_zero_still_raises(self):
        cone = sample_cone(random.Random(1), 4, 5)
        assert fills(FAM_FLAT_ZERO, 5) and vanishing_witness(FAM_FLAT_ZERO, 5) == ()
        with pytest.raises(VerificationFailureError) as err:
            verify_vervan(cone, FAM_FLAT_ZERO)
        assert err.value.context["fills"] is True and err.value.context["minor"] == 0

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d, n", [(3, 6), (4, 7), (5, 8)])
    @pytest.mark.parametrize("anchor", ["first", "last"])
    def test_anchor_star_family_has_full_rank(self, d, n, seed, anchor):
        # The diagonals avoiding one generator a: no witness, and the minor
        # is prod over d-subsets E without a of |det E|^(d-1), nonzero in
        # general position (DECISIONS.md), so the interpolation system has
        # full rank.
        cone = sample_cone(random.Random(seed), d, n)
        a = 0 if anchor == "first" else n - 1
        others = [i for i in range(n) if i != a]
        record = verify_vervan(cone, list(combinations(others, d - 1)))
        assert record.fills and record.witness == ()
        assert record.minor != 0 and abs(record.minor) == record.expected_abs
        expected = 1
        for simplex in combinations(others, d):
            expected *= abs(cone.maximal_minor(simplex)) ** (d - 1)
        assert record.expected_abs == expected

    def test_minor_scaling_degree(self):
        # scaling every generator by lam scales the minor by
        # lam ** ((d-1) * (n-d) * C(n-1, d-1))
        cone = sample_cone(random.Random(11), 3, 5)
        lam = Fraction(3, 2)
        scaled = Cone(cone.apex, tuple(tuple(lam * c for c in g) for g in cone.generators))
        fam = sample_family(random.Random(4), cone)
        n, d = cone.num_generators, cone.dimension
        exponent = (d - 1) * (n - d) * comb(n - 1, d - 1)
        assert minor(scaled, fam) == lam**exponent * minor(cone, fam)


class TestFPlus:
    def test_single_form(self):
        assert fplus([(0, 1)], 2) == (0, 1)

    def test_squared_form(self):
        assert fplus([(1, 1), (1, 1)], 2) == (1, 2, 1)

    def test_zero_vector_annihilates(self):
        assert fplus([(0, 0), (1, 2)], 2) == (0, 0, 0)

    def test_empty_input(self):
        assert fplus([], 3) == (1,)

    @given(data=st.data())
    def test_matches_expanded_product(self, data):
        forms = [data.draw(vectors(3)) for _ in range(data.draw(st.integers(1, 3)))]
        assert fplus(forms, 3) == expand_linear_forms(forms, 3).coefficients

    @given(data=st.data())
    def test_pairing_factors(self, data):
        forms = [data.draw(vectors(2)) for _ in range(data.draw(st.integers(1, 3)))]
        point = data.draw(vectors(2))
        pairing = dot(fplus(forms, 2), veronese(point, len(forms)))
        product = Fraction(1)
        for form in forms:
            product *= dot(form, point)
        assert pairing == product


class TestNullPairing:
    def test_intersecting_vanishes(self, fan_cone):
        dual = diagonal_for(fan_cone, (2,)).dual
        assert null_pairing([fan_cone.generators[2]], dual) == 0

    def test_disjoint_does_not_vanish(self, fan_cone):
        dual = diagonal_for(fan_cone, (0,)).dual
        assert null_pairing([fan_cone.generators[1]], dual) == 1

    def test_square_cone_intersecting(self, square_cone):
        dual = diagonal_for(square_cone, (0, 3)).dual
        assert null_pairing([square_cone.generators[3]], dual) == 0

    @given(cone=random_cones(dims=(2, 3), extras=(1, 2)), data=st.data())
    def test_pairing_is_product_over_duals(self, cone, data):
        n, d = cone.num_generators, cone.dimension
        indices = data.draw(st.permutations(range(n)))
        chosen = sorted(indices[: d - 1])
        rest = [i for i in range(n) if i not in chosen][: n - d]
        dual = diagonal_for(cone, chosen).dual
        vectors_ = [cone.generators[i] for i in rest]
        expected = Fraction(1)
        for v in vectors_:
            expected *= dot(v, dual)
        assert null_pairing(vectors_, dual) == expected
