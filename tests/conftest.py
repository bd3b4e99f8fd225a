import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from conefourier import Cone
from conefourier.sampling import sample_cone

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonzero_rationals = rationals.filter(lambda q: q != 0)
small_positive = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)


def vectors(dimension):
    return st.tuples(*([rationals] * dimension))


def rational_reduction(rows, width):
    """The reference elimination over Q, apart from the program's own
    integer ones: each row, in the order given, has every entry made a
    Fraction and is reduced against the rows kept before it, which have 1
    at their lead. It yields ``(lead, value, kept)``: the column and value
    of the reduced row's first nonzero entry and the reduced row divided by
    that value, which is kept; a row that vanishes yields
    ``(None, Fraction(0), None)``."""
    kept = []
    for row in rows:
        work = [Fraction(a) for a in row]
        assert len(work) == width
        for lead, pivot in kept:
            factor = work[lead]
            work = [a - factor * b for a, b in zip(work, pivot)]
        lead = next((j for j, a in enumerate(work) if a), None)
        if lead is None:
            yield None, Fraction(0), None
            continue
        value = work[lead]
        work = [a / value for a in work]
        kept.append((lead, work))
        yield lead, value, work


@st.composite
def random_cones(draw, dims=(2, 3), extras=(0, 1, 2)):
    """Generic pointed cones built from a drawn seed; shrinks poorly but
    guarantees validity, which matters more for exact identities."""
    d = draw(st.sampled_from(dims))
    n = d + draw(st.sampled_from(extras))
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return sample_cone(random.Random(seed), d, n)


def rational_cone(rng, d, n):
    """A seeded cone with every generator coordinate c moved to c / s + t,
    s and t drawn, so its generators have denominators."""
    base = sample_cone(rng, d, n)

    def move(c):
        return c / rng.randint(1, 5) + Fraction(rng.randint(-2, 2), rng.randint(2, 7))

    return Cone(base.apex, tuple(tuple(map(move, g)) for g in base.generators))


@pytest.fixture
def fan_cone():
    """First quadrant in 2D with a redundant middle ray."""
    return Cone((0, 0), ((1, 0), (1, 1), (0, 1)))


@pytest.fixture
def square_cone():
    """Cone over the unit diamond at height one; n=4, d=3, all simplex
    determinants equal 2."""
    return Cone((0, 0, 0), ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))


@pytest.fixture
def unit_square_vertices():
    return [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.fixture
def octahedron_vertices():
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
