"""Cone Fourier transform numerators via diagonal interpolation.

Every diagonal of the cone supplies one exact value of the numerator
polynomial p_K at the diagonal's dual vector: a signed product of
determinants for extremal diagonals, zero for interior ones. Expanding the
duals through the Veronese map turns these values into an overdetermined
linear system for the coefficients of p_K, solved here by exact rational
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .cones import Cone, Diagonal, DiagonalClass, DiagonalKind, classify_diagonal, enumerate_diagonals
from .errors import (
    DegenerateDiagonalError,
    DimensionError,
    InconsistentError,
    RankDeficientError,
)
from .geometry import ONE, ZERO, _reduce_rows, basis_size, veronese
from .polynomials import HomogeneousPolynomial


@dataclass(frozen=True)
class SystemRow:
    diagonal: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    rhs: Fraction


@dataclass(frozen=True)
class InterpolationSystem:
    """The stacked interpolation rows for one cone, one per non-degenerate
    diagonal, plus the list of degenerate diagonals that were skipped."""

    dimension: int
    degree: int
    rows: tuple[SystemRow, ...]
    skipped: tuple[tuple[int, ...], ...] = ()

    @property
    def unknowns(self) -> int:
        return basis_size(self.dimension, self.degree)


@dataclass(frozen=True)
class SolveDetails:
    rank: int
    pivots: tuple[tuple[tuple[int, ...], int], ...]  # (diagonal, pivot column)


def _rhs_from_class(cone: Cone, diagonal: Diagonal, cls: DiagonalClass) -> Fraction:
    if cls.kind is DiagonalKind.INTERIOR:
        return ZERO
    return cls.sign * prod(cone.dual_pairings(diagonal.indices), start=ONE)


def rhs_value(cone: Cone, diagonal: Diagonal) -> Fraction:
    """The exact value of p_K at the diagonal's dual vector.

    Extremal diagonals give sign * prod(<dual, w_j>, j off the diagonal),
    the sign being the common sign of those determinants; interior
    diagonals give zero. Degenerate diagonals have no defined value.
    """
    cls = classify_diagonal(cone, diagonal)
    if cls.kind is DiagonalKind.DEGENERATE:
        raise DegenerateDiagonalError(
            f"diagonal {tuple(i + 1 for i in diagonal.indices)} is degenerate",
            diagonal=tuple(i + 1 for i in diagonal.indices),
        )
    return _rhs_from_class(cone, diagonal, cls)


def build_system(cone: Cone) -> InterpolationSystem:
    """One row per non-degenerate diagonal: the Veronese expansion of the
    dual against the value of p_K there. Degenerate diagonals are recorded
    in ``skipped`` instead of contributing a row."""
    degree = cone.num_generators - cone.dimension
    rows = []
    skipped = []
    for diagonal in enumerate_diagonals(cone):
        cls = classify_diagonal(cone, diagonal)
        if cls.kind is DiagonalKind.DEGENERATE:
            skipped.append(diagonal.indices)
            continue
        rows.append(
            SystemRow(
                diagonal=diagonal.indices,
                coefficients=veronese(diagonal.dual, degree),
                rhs=_rhs_from_class(cone, diagonal, cls),
            )
        )
    return InterpolationSystem(cone.dimension, degree, tuple(rows), tuple(skipped))


def solve_with_details(system: InterpolationSystem) -> tuple[HomogeneousPolynomial, SolveDetails]:
    """Exact elimination over the rows in their given order.

    The rows, with the rhs as a last column, go through the shared row
    reduction: a row's pivot column is its first surviving coefficient, and
    a row whose only surviving entry is the rhs leaves a residual, so the
    system lies about its cone. Every row is checked, also after full rank.
    """
    unknowns = system.unknowns
    for row in system.rows:
        if len(row.coefficients) != unknowns:
            raise DimensionError(
                f"row for diagonal {row.diagonal} has {len(row.coefficients)} entries, expected {unknowns}"
            )
    pivots: list[tuple[int, list[Fraction]]] = []
    pivot_meta: list[tuple[tuple[int, ...], int]] = []
    augmented = ((*row.coefficients, row.rhs) for row in system.rows)
    for row, (lead, value, work) in zip(system.rows, _reduce_rows(augmented, unknowns + 1)):
        if lead is None:
            continue
        if lead == unknowns:
            raise InconsistentError(
                f"row for diagonal {tuple(i + 1 for i in row.diagonal)} leaves residual {value}",
                diagonal=tuple(i + 1 for i in row.diagonal),
                residual=value,
            )
        pivots.append((lead, work))
        pivot_meta.append((row.diagonal, lead))
    if len(pivots) < unknowns:
        raise RankDeficientError(
            f"only {len(pivots)} independent rows for {unknowns} unknowns",
            rank=len(pivots),
            unknowns=unknowns,
            skipped=tuple(tuple(i + 1 for i in d) for d in system.skipped),
        )
    solution: list[Fraction | None] = [None] * unknowns
    for col, work in sorted(pivots, key=lambda p: p[0], reverse=True):
        # Entries left of the pivot column are zero by construction.
        acc = work[unknowns]
        for j in range(col + 1, unknowns):
            if work[j] != 0:
                acc -= work[j] * solution[j]
        solution[col] = acc
    poly = HomogeneousPolynomial(system.dimension, system.degree, tuple(solution))
    return poly, SolveDetails(rank=len(pivots), pivots=tuple(pivot_meta))


def solve_exact(system: InterpolationSystem) -> HomogeneousPolynomial:
    """Solve the interpolation system, verifying every dependent row."""
    poly, _ = solve_with_details(system)
    return poly


def pk_via_interpolation(cone: Cone) -> HomogeneousPolynomial:
    """Numerator polynomial of the cone transform, recovered by solving
    the diagonal interpolation system. Agrees exactly with
    pk_via_triangulation whenever both pipelines succeed."""
    return solve_exact(build_system(cone))
