"""Pointed polyhedral cones, their diagonals, and exact validation.

A cone is an apex plus an ordered list of n >= d generator rays in
dimension d. A diagonal is a (d-1)-subset of the generators; its dual is
the generalized cross product of the selected rays, the normal vector of
the hyperplane they span. Diagonals classify as extremal (all remaining
generators strictly on one side), interior (generators on both sides), or
degenerate (some generator exactly on the hyperplane, or a zero dual).
Each pairing of a dual with a generator off its diagonal is a signed
maximal minor, read from the cone's one table of them. The pairings also
determine the dual: ``Cone.integer_dual`` reads it off the table by
Cramer's rule on one basis of generators, so only the d duals of that
basis are cross products, and ``diagonal_for`` divides it by the scales.

The table holds the minors of the cone's integer-normal form: generator
w_j times the lcm m_j of its denominators, the integer vector
u_j = m_j w_j (``Cone.integer_generators``, ``Cone.scales``). On an integer
cone u = w. A minor of u is the minor of w times the m_j of its rows, so it
has the same sign, and the pipelines compute on u in ``int`` and divide
p_K by ``Cone.scale`` = prod m_j once at the end. The table, one list in
``combinations`` order, is filled on first read by one sweep
(``geometry.maximal_minors``) that shares sub-minors between the C(n, d)
minors. Where each minor sits in it, and each pairing's sign, depend only
on the shape (n, d): ``geometry._pairing_table`` keeps them per shape for
the process, and the sweep scatters by the same tables. A pairing is a
read at precomputed positions; the minor at S is the last pairing of S[:-1].
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    DuplicateRayError,
    NotPointedError,
    ZeroGeneratorError,
)
from .feasibility import conic_combination, interior_witness
from .geometry import Vector, _clear_denominators, _pairing_table, as_vector, dot, generalized_cross
from .geometry import is_zero_vector, maximal_minors


@dataclass(frozen=True)
class Cone:
    """An apex and n >= d generator rays, all rational. The integer-normal
    form (``integer_generators``, ``scales``), the table of its maximal
    minors (all of them, by one sweep on first read) and the basis
    ``integer_dual`` reads are derived from the generators and left out of
    equality, hashing and repr."""

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
        for i, j in combinations(range(len(self.generators)), 2):
            if _positive_multiples(self.generators[i], self.generators[j]):
                raise DuplicateRayError(
                    f"generators {i + 1} and {j + 1} span the same ray", indices=(i + 1, j + 1)
                )
        normal = [_clear_denominators(g) for g in self.generators]
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
        """The cone's one table of minors: the determinant of the integer
        generators at every sorted d-subset, rows in that order, as a list
        in ``combinations`` order. Filled by one sweep on first read and
        kept; threads racing on the first read store equal tables."""
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
        diagonal D, read off the minor table by Cramer's rule on the basis
        S (``_dual_basis``): dual(D) = sum over s in S of <dual(D), u_s>
        dual(S - s) / <dual(S - s), u_s>, each pairing a signed minor (0 for
        s in D), summed over |det u_S| and divided exactly, since dual(D) is
        integral. A cone of rank below d has no basis, and gets the cross
        product. Any other index tuple is a DimensionError."""
        members = tuple(diagonal)
        if members not in _pairing_table(self.num_generators, self.dimension):  # before either path reads them
            raise self._subset_error(members, self.dimension - 1)
        basis = self._dual_basis
        if basis is None:
            return generalized_cross([self.integer_generators[i] for i in members], self.dimension)
        subset, denominator, duals = basis
        weighted = [
            (self._pairing(members, s), dual) for s, dual in zip(subset, duals) if s not in members
        ]
        return tuple(sum(w * dual[i] for w, dual in weighted) // denominator for i in range(self.dimension))

    @cached_property
    def _dual_basis(self) -> tuple[tuple[int, ...], int, tuple[tuple[int, ...], ...]] | None:
        """(S, |det u_S|, duals) for the first d-subset S, in combinations
        order, with a nonzero minor, or None when there is none. duals[k] is
        dual(S - s_k) times the sign of its pairing with u_{s_k}, which is
        +-det u_S. Derived on first use and kept, like the table."""
        subsets = combinations(range(self.num_generators), self.dimension)
        subset, minor = next(((s, m) for s, m in zip(subsets, self._minors) if m), (None, 0))
        if not minor:
            return None
        duals = []
        for k, s in enumerate(subset):
            others = subset[:k] + subset[k + 1 :]
            dual = generalized_cross([self.integer_generators[i] for i in others], self.dimension)
            duals.append(dual if self._pairing(others, s) > 0 else tuple(-c for c in dual))
        return subset, abs(minor), tuple(duals)

    def _pairing(self, members: tuple[int, ...], j: int) -> int:
        """One entry of ``integer_pairings``: det(u_D..., u_j) for the
        sorted diagonal D and j off it, at slot j - #{i in D : i < j} of the
        table. ``integer_dual`` needs only the entries at its basis; reading
        the whole tuple there instead made the ``cones-large`` benchmark's
        op_p50_s about 3% slower (2-core Xeon)."""
        slots, signs, _ = _pairing_table(self.num_generators, self.dimension)[members]
        slot = j - bisect(members, j)
        return signs[slot] * self._minors[slots[slot]]


def _positive_multiples(u: Vector, v: Vector) -> bool:
    for i, j in combinations(range(len(u)), 2):
        if u[i] * v[j] != u[j] * v[i]:
            return False
    return dot(u, v) > 0


class DiagonalKind(Enum):
    EXTREMAL = "extremal"
    INTERIOR = "interior"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class DiagonalClass:
    kind: DiagonalKind
    sign: int | None = None  # +1 or -1 for extremal diagonals


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


def classify_pairings(pairings: Iterable[Fraction]) -> DiagonalClass:
    """All positive gives Extremal(+1), all negative Extremal(-1), mixed
    signs Interior. Any zero, as from a zero dual, is Degenerate; none
    occurs when the cone is in general position.
    """
    signs: set[int] = set()
    for value in pairings:
        if value == 0:
            return DiagonalClass(DiagonalKind.DEGENERATE)
        signs.add(1 if value > 0 else -1)
    if len(signs) == 2:
        return DiagonalClass(DiagonalKind.INTERIOR)
    return DiagonalClass(DiagonalKind.EXTREMAL, sign=signs.pop())


def is_general_position(cone: Cone) -> bool:
    """True when every d-subset of generators is linearly independent: no
    entry of the minor table is zero."""
    return all(cone._minors)


def validate_cone(cone: Cone) -> ValidationReport:
    """Check pointedness and report the cone's degeneracies.

    Pointedness is certified by an explicit rational functional that is
    positive on every generator, found by exact feasibility. Generators
    that are nonnegative combinations of the others are permitted but
    reported as redundant.
    """
    witness = interior_witness(cone.generators)
    if witness is None:
        raise NotPointedError(
            "generators admit a nontrivial nonnegative combination equal to zero; "
            "the cone contains a line"
        )
    redundant = []
    for i in range(cone.num_generators):
        others = [g for j, g in enumerate(cone.generators) if j != i]
        if conic_combination(others, cone.generators[i]) is not None:
            redundant.append(i)
    return ValidationReport(
        pointed=True,
        witness=witness,
        general_position=is_general_position(cone),
        redundant_generators=tuple(redundant),
    )
