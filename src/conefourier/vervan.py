"""Determinant identities of the diagonal interpolation matrix.

The maximal minors of the interpolation matrix factor combinatorially.
Take a family of N = C(n-1, d-1) diagonals. Its minor, the determinant of
the Veronese images of their duals (``Cone._dual_columns``, in ``int``; by
Cramer's rule, or cross products below rank d), is predicted in two branches.

Rank bound (minor 0). Take a set T of at most n-d generators. Every family
member that meets T has its dual on the union of the hyperplanes w_t^perp,
t in T. The degree-(n-d) forms vanishing on that union are the multiples
of prod(<w_t, xi>, t in T), so the Veronese images of points on it span at
most N - C(n-1-|T|, d-1) dimensions. A family with more members meeting T
has dependent rows, and its minor vanishes identically. This holds for
every cone. A family missing some d-simplex E is the case T = complement
of E (there ``fplus`` of the complementary generators is an explicit null
vector); more than C(n-2, d-2) members through one generator is the case
|T| = 1.

Product (all other families). The minor is checked against the product of
simplex determinants raised to multiplicity minus one:

    |minor| = prod over d-subsets E of |det(E)| ** (mult(E) - 1)

where mult(E) counts the family members contained in E.

This bound-or-product prediction matches the exact minor on every family
for d = 3 and n = 4, 5, 6, and on sampled families at d = 3, n = 7. For
d >= 4 it is incomplete: duals can also crowd into lower-dimensional flats.
The d = 4, n = 5 family (1-based) [[1,2,3],[1,2,4],[1,2,5],[3,4,5]] fills
and breaks no bound, yet three of its duals lie in the plane
(w_1, w_2)^perp, so its minor is 0. ``verify_vervan`` raises
VerificationFailureError on such families; the general condition is open
(see DECISIONS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from typing import Sequence

from .cones import Cone, _diagonal_indices
from .errors import DimensionError, VerificationFailureError
from .geometry import ONE, ZERO, Vector, as_vector, determinant, dot, veronese, veronese_columns
from .triangulation import expand_linear_forms

Family = tuple[tuple[int, ...], ...]


def normalize_family(family: Sequence[Sequence[int]]) -> Family:
    """Sort a family of diagonals lexicographically; reject repeats and the empty family."""
    normalized = tuple(sorted(tuple(sorted(d)) for d in family))
    if not normalized:
        raise DimensionError("family is empty")
    sizes = {len(d) for d in normalized}
    if len(sizes) > 1:
        raise DimensionError("family mixes diagonals of different sizes")
    if len(set(normalized)) != len(normalized):
        raise DimensionError("family contains a repeated diagonal")
    return normalized


def multiplicity(family: Sequence[Sequence[int]], simplex: Sequence[int]) -> int:
    """Number of family members contained in the given d-subset."""
    simplex_set = set(simplex)
    return sum(1 for d in family if set(d) <= simplex_set)


def fills(family: Sequence[Sequence[int]], num_generators: int) -> bool:
    """True when every d-subset of generators contains a family member."""
    fam = normalize_family(family)
    dimension = len(fam[0]) + 1
    return all(multiplicity(fam, simplex) >= 1 for simplex in combinations(range(num_generators), dimension))


def vanishing_witness(family: Sequence[Sequence[int]], num_generators: int) -> tuple[int, ...]:
    """A generator set T, |T| <= n-d, met by more family members than
    N - C(n-1-|T|, d-1), which forces the minor to vanish (see the module
    docstring). The smallest such T, lexicographically first among those,
    or the empty tuple when no T breaks the bound."""
    fam = normalize_family(family)
    n, d = num_generators, len(fam[0]) + 1
    total = comb(n - 1, d - 1)
    members = [set(m) for m in fam]
    for size in range(1, n - d + 1):
        bound = total - comb(n - 1 - size, d - 1)
        for candidate in combinations(range(n), size):
            if sum(1 for m in members if not m.isdisjoint(candidate)) > bound:
                return candidate
    return ()


def minor(cone: Cone, family: Sequence[Sequence[int]]) -> Fraction:
    """Determinant of the square matrix of Veronese-expanded duals, one
    row per family diagonal in lexicographic order. It is taken in ``int``
    on the integer duals (``Cone._dual_columns`` of their pairings, all at
    once, then a column per monomial by ``veronese_columns``), each c_D
    times the dual of ``diagonal_for``, c_D the product of the diagonal's
    scales. The Veronese map is homogeneous of degree n - d, so that
    determinant is the minor times prod c_D^(n-d), divided by it once."""
    fam = normalize_family(family)
    n, d = cone.num_generators, cone.dimension
    expected = comb(n - 1, d - 1)
    if len(fam) != expected:
        raise DimensionError(f"family needs {expected} diagonals, got {len(fam)}")
    members = [_diagonal_indices(cone, idx) for idx in fam]
    duals = cone._dual_columns(members, map(cone.integer_pairings, members))
    rows = list(zip(*veronese_columns(duals, n - d)))
    scale = prod(cone.scales[i] for idx in members for i in idx)
    return Fraction(determinant(rows), scale ** (n - d))


@dataclass(frozen=True)
class VerVanRecord:
    """Both sides of the minor identity for one family, plus the
    multiplicity table that feeds the product branch. ``witness`` is the
    generator set forcing a zero minor, empty when the product applies."""

    family: Family
    fills: bool
    minor: Fraction
    expected_abs: Fraction
    sign: int
    witness: tuple[int, ...]
    multiplicities: tuple[tuple[tuple[int, ...], int, Fraction], ...]


def verify_vervan(cone: Cone, family: Sequence[Sequence[int]]) -> VerVanRecord:
    """Check the minor identity for one family on one cone.

    When some generator set T breaks the rank bound (``vanishing_witness``)
    the minor must be 0; this covers every non-filling family. Otherwise it
    is checked against the determinant product in absolute value, the sign
    being recorded rather than predicted. A mismatch raises
    VerificationFailureError with the full counterexample attached, its
    family 1-based like every index on the wire. For
    d <= 3 no family is known to raise; for d >= 4 filling families whose
    duals crowd into a flat of codimension two or more do, since the bound
    does not see them (see the module docstring).
    """
    fam = normalize_family(family)
    value = minor(cone, fam)
    n, d = cone.num_generators, cone.dimension
    table = []
    for simplex in combinations(range(n), d):
        det = cone.maximal_minor(simplex)
        table.append((simplex, multiplicity(fam, simplex), det))
    filled = all(mult >= 1 for _, mult, _ in table)
    witness = vanishing_witness(fam, n)
    if witness:
        expected = ZERO
    else:
        expected = ONE
        for _, mult, det in table:
            expected *= abs(det) ** (mult - 1)
    if abs(value) != expected:
        raise VerificationFailureError(
            "minor identity failed",
            family=tuple(tuple(i + 1 for i in member) for member in fam),
            fills=filled,
            minor=value,
            expected_abs=expected,
        )
    return VerVanRecord(
        family=fam,
        fills=filled,
        minor=value,
        expected_abs=expected,
        sign=0 if value == 0 else (1 if value > 0 else -1),
        witness=witness,
        multiplicities=tuple(table),
    )


def fplus(vectors: Sequence[Sequence], dimension: int) -> Vector:
    """Coefficient vector, in monomial basis order, of the product of
    linear forms prod(<v, xi>) over the given vectors.

    Pairing this against a Veronese-expanded point factors back into the
    product of the linear forms at that point, which is what makes it a
    null vector for duals of intersecting diagonals.
    """
    return expand_linear_forms(vectors, dimension).coefficients


def null_pairing(vectors: Sequence[Sequence], dual: Sequence) -> Fraction:
    """<fplus(vectors), veronese(dual)>, which equals prod(<v, dual>).

    Zero exactly when some vector is orthogonal to the dual, in particular
    whenever the vectors include a generator of the dual's diagonal.
    """
    vs = [as_vector(v) for v in vectors]
    dual_vec = as_vector(dual)
    return dot(fplus(vs, len(dual_vec)), veronese(dual_vec, len(vs)))
