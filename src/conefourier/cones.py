"""Pointed polyhedral cones, their diagonals, and exact validation.

A cone is an apex plus an ordered list of n >= d generator rays in
dimension d. A diagonal is a (d-1)-subset of the generators; its dual is
the generalized cross product of the selected rays, the normal vector of
the hyperplane they span. Diagonals classify as extremal (all remaining
generators strictly on one side), interior (generators on both sides), or
degenerate (some generator exactly on the hyperplane, or a zero dual).
Each pairing of a dual with a generator off its diagonal is a signed
maximal minor, read from the cone's one table of them. The pairings also
determine the dual: ``Cone._dual_columns`` reads a batch of duals off the
table by Cramer's rule on the greedy basis of generators and its integer
inverse, both from one fraction-free elimination (``_adjugate``) that reads
no minor: no dual of a cone of full rank is a cross product.
``Cone.integer_dual`` is its one-diagonal case, and ``diagonal_for``
divides that by the scales.

The table holds the minors of the cone's integer-normal form: generator
w_j times the lcm m_j of its denominators, the integer vector
u_j = m_j w_j (``Cone.integer_generators``, ``Cone.scales``). On an integer
cone u = w. A minor of u is the minor of w times the m_j of its rows, so it
has the same sign, and the pipelines compute on u in ``int`` and divide
p_K by ``Cone.scale`` = prod m_j once at the end. The table, one list in
``combinations`` order, is filled on first read. Below rank d it is all
zeros, since the same elimination finds no basis; otherwise one sweep
(``geometry.maximal_minors``) shares sub-minors between the C(n, d)
minors. Where each minor sits in it, and each pairing's sign, depend only
on the shape (n, d): ``geometry._pairing_table`` keeps them per shape for
the process, and the sweep scatters by the same tables. A pairing is a
read at precomputed positions; the minor at S is the last pairing of S[:-1].

``_facets`` (a double description from the greedy basis and integer
inverse of the ``_adjugate`` its caller passes) is the one facet finder:
with ``_meet`` (the extreme-ray test) it serves
``brion.polytope_combinatorics``, and from the cone's own elimination
(``Cone._elimination``, which the table and the duals read too)
``validate_cone``, which reads pointedness and its witness off the
facets, and ``triangulation.pulling_triangulation``. The one cross
product left is the dual of a cone of rank below d, one elimination each.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from math import comb, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    DuplicateRayError,
    NotPointedError,
    ZeroGeneratorError,
)
from .geometry import Vector, _adjugate, _clear_denominators, _pairing_table, _primitive, as_vector
from .geometry import generalized_cross, is_zero_vector, maximal_minors


@dataclass(frozen=True)
class Cone:
    """An apex and n >= d generator rays, all rational. The integer-normal
    form (``integer_generators``, ``scales``), the one elimination of the
    integer generators (``_elimination``, whose basis is short of d rows
    below rank d) and the table of all maximal minors (all 0 without a
    basis; both on first read) are derived from the generators and left
    out of equality, hashing and repr."""

    apex: Vector
    generators: tuple[Vector, ...]
    integer_generators: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    scales: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "apex", as_vector(self.apex))
        object.__setattr__(self, "generators", tuple(as_vector(g) for g in self.generators))
        d = len(self.apex)
        if d < 1:
            raise DimensionError("cone needs a positive ambient dimension")
        for i, g in enumerate(self.generators):
            if len(g) != d:
                raise DimensionError(f"generator {i + 1} has length {len(g)}, expected {d}")
            if is_zero_vector(g):
                raise ZeroGeneratorError(f"generator {i + 1} is the zero vector", index=i + 1)
        if len(self.generators) < d:
            raise DimensionError(
                f"cone in dimension {d} needs at least {d} generators, got {len(self.generators)}"
            )
        normal = [_clear_denominators(g) for g in self.generators]
        duplicate = _first_duplicate_ray(u for u, _ in normal)
        if duplicate:
            i, j = duplicate
            raise DuplicateRayError(f"generators {i + 1} and {j + 1} span the same ray", indices=(i + 1, j + 1))
        object.__setattr__(self, "integer_generators", tuple(tuple(u) for u, _ in normal))
        object.__setattr__(self, "scales", tuple(m for _, m in normal))

    @property
    def dimension(self) -> int:
        return len(self.apex)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def scale(self) -> int:
        """prod m_j: the numerator of the integer generators is this times p_K."""
        return prod(self.scales)

    @cached_property
    def _minors(self) -> list[int]:
        """The determinant of the integer generators at every sorted d-subset,
        rows in that order, in ``combinations`` order: the cone's one table of
        minors, filled on first read and kept (racing threads store equal
        tables). All 0 below rank d (``_elimination`` keeps fewer than d
        rows), else one sweep."""
        if len(self._elimination[0]) < self.dimension:
            return [0] * comb(self.num_generators, self.dimension)
        return maximal_minors(self.integer_generators)

    def integer_minor(self, indices: Sequence[int]) -> int:
        """det of the integer generators at the sorted d-subset ``indices``,
        rows in that order: an entry of the table, read as the last pairing
        of its prefix D = indices[:-1]. Any other index tuple is a
        DimensionError."""
        key = tuple(indices)
        d = self.dimension
        entry = _pairing_table(self.num_generators, d).get(key[:-1]) if key else None
        if entry:
            slots, _, offs = entry
            slot = key[-1] - (d - 1)  # S is sorted exactly when S[-1] is off D past all of it
            if 0 <= slot < len(offs) and offs[slot] == key[-1]:
                return self._minors[slots[slot]]
        raise self._subset_error(key, d)

    def maximal_minor(self, indices: Sequence[int]) -> int | Fraction:
        """det of the generators at the sorted d-subset ``indices``: the
        integer minor over the scales of its rows, an int when they are all 1.
        Any other index tuple is a DimensionError."""
        value = self.integer_minor(indices)
        scale = prod(self.scales[i] for i in indices)
        return value if scale == 1 else Fraction(value, scale)

    def integer_pairings(self, diagonal: Sequence[int]) -> tuple[int, ...]:
        """<integer_dual(D), u_j> = det(u_D..., u_j) for each j off the sorted
        diagonal D, in index order: the integer minor at sorted(D + (j,))
        times (-1)^#{i in D : i > j}, read through ``geometry._pairing_table``.
        Each has the sign of the rational pairing; their product is the
        integer numerator at the integer dual. Any other index tuple is a
        DimensionError."""
        members = tuple(diagonal)
        try:
            slots, signs, _ = _pairing_table(self.num_generators, self.dimension)[members]
        except KeyError:
            raise self._subset_error(members, self.dimension - 1) from None
        return tuple(map(mul, signs, map(self._minors.__getitem__, slots)))

    def _subset_error(self, indices: tuple[int, ...], size: int) -> DimensionError:
        wire = tuple(i + 1 for i in indices)  # 1-based, as on the wire
        return DimensionError(
            f"indices {wire} are not a sorted {size}-subset of the {self.num_generators} generators",
            indices=wire,
            size=size,
            generators=self.num_generators,
        )

    def integer_dual(self, diagonal: Sequence[int]) -> tuple[int, ...]:
        """``generalized_cross`` of the integer generators on the sorted
        diagonal D: the one-diagonal case of ``_dual_columns``. Any other
        index tuple is a DimensionError."""
        members = tuple(diagonal)
        pairings = self.integer_pairings(members)  # checks the indices before the cross-product fallback
        return tuple(column[0] for column in self._dual_columns([members], [pairings]))

    def _dual_columns(self, diagonals: Sequence[tuple[int, ...]], pairings: Iterable[Sequence[int]]) -> list[list[int]]:
        """The integer duals of the sorted diagonals, ``pairings`` their
        ``integer_pairings``, as d coordinate columns: dual(D) = U_S^-1 w_D
        by Cramer's rule, U_S^-1 the inverse rows of ``_elimination`` over
        |det U_S| and w_D the pairings <dual(D), u_s> = det(u_D..., u_s)
        with the basis S, each read off D's pairings (``_basis_pairings``).
        Divided exactly, since dual(D) is integral. A cone of rank below d
        has no basis, and gets one cross product a diagonal."""
        subset, _, denominator, inverse = self._elimination
        if len(subset) < self.dimension:
            u = self.integer_generators
            duals = [generalized_cross([u[i] for i in members], self.dimension) for members in diagonals]
            return [list(column) for column in zip(*duals)]
        weights = list(map(_basis_pairings, diagonals, pairings, repeat(subset)))
        return [[sum(map(mul, row, w)) // denominator for w in weights] for row in inverse]

    @cached_property
    def _elimination(self) -> tuple[list[int], list[int], int, list[list[int]]]:
        """``_adjugate`` of the integer generators, the cone's one record of
        its elimination: the greedy basis S, the first d-subset in
        ``combinations`` order with a nonzero minor (DECISIONS.md), short of
        d rows below rank d, with its leads, |det U_S| and rows that over
        |det U_S| are U_S^-1. Read by ``_minors``, ``_dual_columns`` and
        ``_facets``."""
        return _adjugate(self.integer_generators)


def _basis_pairings(members: tuple[int, ...], pairings: Sequence[int], subset: Sequence[int]) -> list[int]:
    """det(u_D..., u_s) for each s in ``subset``, from the sorted diagonal
    D's ``integer_pairings``: the entry at slot s - #{i in D : i < s} for s
    off D, and 0 for s in D."""
    return [0 if s in members else pairings[s - bisect(members, s)] for s in subset]


def _first_duplicate_ray(integer_generators: Iterable[Sequence[int]]) -> tuple[int, int] | None:
    """The first pair (i, j), in ``combinations`` order, of nonzero integer
    vectors on the same ray, or None: two vectors span the same ray exactly
    when their primitive forms (``geometry._primitive``) are equal. One pass keeps the
    first index of each primitive form; a later index j with a seen form
    pairs with its first index i, and the least such i wins, since the
    first repeat of a form has its least j."""
    first: dict[tuple[int, ...], int] = {}
    found = None
    for j, u in enumerate(integer_generators):
        i = first.setdefault(_primitive(u), j)
        if i != j and (found is None or i < found[0]):
            found = (i, j)
    return found


class DiagonalKind(Enum):
    EXTREMAL = "extremal"
    INTERIOR = "interior"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class DiagonalClass:
    kind: DiagonalKind
    sign: int | None = None  # +1 or -1 for extremal diagonals


_DEGENERATE = DiagonalClass(DiagonalKind.DEGENERATE)
_INTERIOR = DiagonalClass(DiagonalKind.INTERIOR)
_POSITIVE = DiagonalClass(DiagonalKind.EXTREMAL, sign=1)
_NEGATIVE = DiagonalClass(DiagonalKind.EXTREMAL, sign=-1)


@dataclass(frozen=True)
class Diagonal:
    """A (d-1)-subset of generator indices together with its dual vector."""

    indices: tuple[int, ...]
    dual: Vector


@dataclass(frozen=True)
class ValidationReport:
    pointed: bool
    witness: Vector
    general_position: bool
    redundant_generators: tuple[int, ...]


def diagonal_for(cone: Cone, indices: Iterable[int]) -> Diagonal:
    """Build the diagonal on the given (d-1) generator indices. Its dual,
    their cross product, is ``Cone.integer_dual`` over the product c_D of
    their scales (the cross product is multilinear): ints when c_D = 1."""
    idx = _diagonal_indices(cone, indices)
    dual = cone.integer_dual(idx)
    scale = prod(cone.scales[i] for i in idx)
    return Diagonal(idx, dual if scale == 1 else tuple(Fraction(c, scale) for c in dual))


def _diagonal_indices(cone: Cone, indices: Iterable[int]) -> tuple[int, ...]:
    """The given generator indices, sorted, once they are checked to be
    d-1 distinct indices of the cone's generators."""
    idx = tuple(sorted(indices))
    wire = tuple(i + 1 for i in idx)  # 1-based, as on the wire
    if len(set(idx)) != len(idx):
        raise DimensionError(f"repeated index in diagonal {wire}", diagonal=wire, generators=cone.num_generators)
    if len(idx) != cone.dimension - 1:
        raise DimensionError(
            f"diagonal needs {cone.dimension - 1} indices in dimension {cone.dimension}, got {len(idx)}"
        )
    if idx and (idx[0] < 0 or idx[-1] >= cone.num_generators):
        raise DimensionError(f"diagonal indices {wire} out of range", diagonal=wire, generators=cone.num_generators)
    return idx


def enumerate_diagonals(cone: Cone) -> tuple[Diagonal, ...]:
    """All C(n, d-1) diagonals in lexicographic order of their index sets."""
    return tuple(
        diagonal_for(cone, idx) for idx in combinations(range(cone.num_generators), cone.dimension - 1)
    )


def classify_diagonal(cone: Cone, diagonal: Diagonal) -> DiagonalClass:
    """Classify by the signs of <dual, w_j> over generators off the diagonal."""
    return classify_pairings(cone.integer_pairings(diagonal.indices))


def classify_pairings(pairings: Sequence[Fraction]) -> DiagonalClass:
    """All positive gives Extremal(+1), all negative Extremal(-1), mixed
    signs Interior. Any zero, as from a zero dual, is Degenerate; none
    occurs when the cone is in general position. The classes are shared
    constants, so classifying builds no object.
    """
    if 0 in pairings:
        return _DEGENERATE
    if min(pairings) > 0:
        return _POSITIVE
    return _NEGATIVE if max(pairings) < 0 else _INTERIOR


def is_general_position(cone: Cone) -> bool:
    """True when every d-subset of generators is linearly independent: no
    entry of the minor table is zero."""
    return all(cone._minors)


def _facets(rows: Sequence[Sequence[int]], elimination: tuple) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The facets of the cone over the nonzero integer rows, of rank r, as
    (rows on it, their bit mask, its primitive normal), in sorted order, by
    the double description method (Motzkin, Raiffa, Thompson & Thrall 1953).

    It starts from the simplicial cone over the greedy basis of the rows,
    which ``elimination``, their ``_adjugate``, gives with its inverse. Its
    normals are taken on the basis's sorted lead columns (where the reduced
    basis rows are the last pivot times the identity, so the projection is
    one-to-one on the span and keeps every face) and are 0 elsewhere: with
    B the basis rows there, column k of |det B| B^-1 is tight on every
    basis row but the k-th and |det B| > 0 on it. It adds the other rows in
    index order. A facet is a primitive normal h and its mask Z(h). Adding
    row a keeps the facets with h.a >= 0, and joins each pair with
    h.a > 0 > h'.a that is adjacent (no third facet is tight on all of
    Z(h) & Z(h'): Fukuda & Prodon 1996) into a facet tight on a, a positive
    combination of the two. An adjacent pair shares at least r - 2 rows, so
    a pair sharing fewer is skipped before the test. Every normal is
    nonnegative on every row, pointed cone or not; on a pointed cone the
    facets are exact (DECISIONS.md)."""
    basis, leads, _, inverse = elimination
    width = len(leads)
    facets = []
    for b, column in zip(basis, zip(*inverse)):
        at_lead = dict(zip(leads, column))
        normal = [at_lead.get(c, 0) for c in range(len(rows[0]))]
        facets.append((_primitive(normal), sum(1 << i for i in basis if i != b)))
    for i in sorted(set(range(len(rows))).difference(basis)):
        row, bit = rows[i], 1 << i
        plus, minus, kept = [], [], []
        for normal, mask in facets:
            value = sum(map(mul, normal, row))
            if value > 0:
                plus.append((normal, mask, value))
                kept.append((normal, mask))
            elif value < 0:
                minus.append((normal, mask, value))
            else:
                kept.append((normal, mask | bit))
        incidences = [mask for _, mask in facets]
        for normal, mask, value in plus:
            for other, other_mask, other_value in minus:
                common = mask & other_mask
                if common.bit_count() < width - 2:
                    continue
                if sum(1 for z in incidences if z & common == common) > 2:
                    continue
                joined = [value * b - other_value * a for a, b in zip(normal, other)]
                kept.append((_primitive(joined), common | bit))
        facets = kept
    return sorted((tuple(i for i in range(len(rows)) if mask >> i & 1), mask, h) for h, mask in facets)


def _meet(facets: Iterable[tuple[tuple[int, ...], int, tuple[int, ...]]], count: int, i: int) -> list[int]:
    """meet[j]: the bit mask of the rows on every facet through rows i and
    j (all rows when none is), the smallest face holding both. The one
    extreme-ray test: with no two rows on one ray, row i is extreme exactly
    when no other row lies on every facet through it, meet[i] == 1 << i."""
    meet = [(1 << count) - 1] * count
    for facet, mask, _ in facets:
        if mask >> i & 1:
            for j in facet:
                meet[j] &= mask
    return meet


def validate_cone(cone: Cone) -> ValidationReport:
    """Check pointedness and report the cone's degeneracies, all from one
    double description of the integer generators (``_facets``). With s the
    sum of the facet normals, the cone is pointed exactly when least =
    min_j <w_j, s> > 0 (DECISIONS.md), and s / least, whose least value on
    a generator is 1, certifies it. Generators that are nonnegative
    combinations of the others are permitted but reported as redundant:
    those that are not extreme rays, by the test of ``_meet``.
    """
    facets = _facets(cone.integer_generators, cone._elimination)
    total = [sum(column) for column in zip(*(normal for _, _, normal in facets))] or [0] * cone.dimension
    least = min(Fraction(sum(map(mul, u, total)), m) for u, m in zip(cone.integer_generators, cone.scales))
    if least <= 0:
        raise NotPointedError(
            "generators admit a nontrivial nonnegative combination equal to zero; "
            "the cone contains a line"
        )
    n = cone.num_generators
    return ValidationReport(
        pointed=True,
        witness=tuple(c / least for c in total),
        general_position=is_general_position(cone),
        redundant_generators=tuple(i for i in range(n) if _meet(facets, n, i)[i] != 1 << i),
    )
