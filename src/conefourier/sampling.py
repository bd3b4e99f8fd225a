"""Seeded random instances for tests, benchmarks, and demos.

Cones are sampled as integer rays over a spherical shell in the first
d-1 coordinates with a positive last coordinate, so they are pointed by
construction; non-generic draws are rejected and resampled. Everything is
driven by a caller-supplied ``random.Random``, so equal seeds give equal
instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from .cones import Cone, is_general_position
from .errors import DimensionError
from .geometry import _primitive, as_vector

# Sampling ranges; every seeded stream, and so every golden output, depends on them.
RADIUS = 6
MAX_HEIGHT = 3
APEX_RANGE = 4
# Cone draws before giving up: seeded samples in the tests and the benchmark
# reject at most 6, at d = 3 rejections grow to ~100 at n = 14 and past 4000 at n = 18.
MAX_DRAWS = 1000


def sample_cone(rng: random.Random, dimension: int, num_generators: int) -> Cone:
    """A random pointed cone in general position with integer generators.
    Raises DimensionError when 5000 ray draws find fewer than n distinct
    rays, or when MAX_DRAWS cone draws are all out of general position."""
    d, n = dimension, num_generators
    if d < 2:
        raise ValueError("sampler supports dimension >= 2")
    if n < d:
        raise ValueError("need at least d generators")
    low = max(1, (RADIUS * RADIUS) // 4)
    high = RADIUS * RADIUS
    for _ in range(MAX_DRAWS):
        rays: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(rays) < n and attempts < 5000:
            attempts += 1
            head = tuple(rng.randint(-RADIUS, RADIUS) for _ in range(d - 1))
            norm2 = sum(c * c for c in head)
            if not low <= norm2 <= high:
                continue
            ray = head + (rng.randint(1, MAX_HEIGHT),)
            primitive = _primitive(ray)
            if primitive in seen:
                continue
            seen.add(primitive)
            rays.append(ray)
        if len(rays) < n:
            raise DimensionError(
                f"only {len(rays)} distinct rays for {n} generators", dimension=d, generators=n, rays_found=len(rays)
            )
        apex = tuple(Fraction(rng.randint(-APEX_RANGE, APEX_RANGE)) for _ in range(d))
        cone = Cone(apex, tuple(as_vector(r) for r in rays))
        if is_general_position(cone):
            return cone
    message = f"no cone in general position in {MAX_DRAWS} draws of {n} rays"
    raise DimensionError(message, dimension=d, generators=n, draws=MAX_DRAWS)


def sample_family(rng: random.Random, cone: Cone) -> tuple[tuple[int, ...], ...]:
    """A uniform random family of C(n-1, d-1) distinct diagonals."""
    n, d = cone.num_generators, cone.dimension
    diagonals = list(combinations(range(n), d - 1))
    picked = rng.sample(range(len(diagonals)), comb(n - 1, d - 1))
    return tuple(sorted(diagonals[i] for i in picked))
