"""Cone Fourier transform numerators via diagonal interpolation.

Every diagonal of the cone supplies one exact value of the numerator
polynomial p_K at the diagonal's dual vector: a signed product of
determinants for extremal diagonals, zero for interior ones. Expanding the
duals through the Veronese map turns these values into an overdetermined
linear system for the coefficients of p_K. The system is built on the
cone's integer-normal form (``Cone.integer_generators``), whose numerator
is ``Cone.scale`` times p_K and has integer coefficients, so rows, values
and solution are ints and the solve divides by the scale once at the end.
It is solved by elimination modulo the prime 2^61 - 1, and the candidate
is accepted only when it satisfies every row exactly; otherwise, and for
the pivots, exact rational elimination decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod

from .cones import Cone, Diagonal, DiagonalKind, classify_diagonal, classify_pairings
from .errors import (
    DegenerateDiagonalError,
    DimensionError,
    InconsistentError,
    RankDeficientError,
)
from .geometry import ONE, ZERO, _clear_denominators, _reduce_rows, basis_size, generalized_cross, veronese
from .polynomials import HomogeneousPolynomial


@dataclass(frozen=True)
class SystemRow:
    diagonal: tuple[int, ...]
    coefficients: tuple[int | Fraction, ...]
    rhs: int | Fraction


@dataclass(frozen=True)
class InterpolationSystem:
    """The stacked interpolation rows for one cone, one per non-degenerate
    diagonal, plus the list of degenerate diagonals that were skipped. The
    rows' solution divided by ``scale`` is the cone's p_K."""

    dimension: int
    degree: int
    rows: tuple[SystemRow, ...]
    skipped: tuple[tuple[int, ...], ...] = ()
    scale: int = 1

    @property
    def unknowns(self) -> int:
        return basis_size(self.dimension, self.degree)


@dataclass(frozen=True)
class SolveDetails:
    """The exact rank of a solved system, which equals its unknowns, and
    the system itself, from which ``pivots`` is derived."""

    rank: int
    system: InterpolationSystem = field(repr=False)

    @cached_property
    def pivots(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(diagonal, pivot column) of each row the exact reduction keeps,
        in row order. Computed on first read and kept; the value depends
        only on the system, so sharing the details between threads is safe."""
        return tuple((diagonal, lead) for diagonal, lead, _ in _eliminate(self.system))


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
    if cls.kind is DiagonalKind.INTERIOR:
        return ZERO
    return cls.sign * prod(cone.dual_pairings(diagonal.indices), start=ONE)


def build_system(cone: Cone) -> InterpolationSystem:
    """One row per non-degenerate diagonal, on the integer generators u: the
    Veronese expansion of the dual of u_D against the value there of the
    numerator of u, all ints. Degenerate diagonals are recorded in
    ``skipped`` instead of contributing a row, and ``scale`` is the cone's,
    so that the system's solution over it is p_K."""
    degree = cone.num_generators - cone.dimension
    generators = cone.integer_generators
    rows = []
    skipped = []
    for indices in combinations(range(cone.num_generators), cone.dimension - 1):
        pairings = cone.integer_pairings(indices)
        cls = classify_pairings(pairings)
        if cls.kind is DiagonalKind.DEGENERATE:
            skipped.append(indices)
            continue
        dual = generalized_cross([generators[i] for i in indices], cone.dimension)
        rhs = 0 if cls.kind is DiagonalKind.INTERIOR else cls.sign * prod(pairings)
        rows.append(SystemRow(diagonal=indices, coefficients=veronese(dual, degree), rhs=rhs))
    return InterpolationSystem(cone.dimension, degree, tuple(rows), tuple(skipped), cone.scale)


# Large, so that it seldom divides a minor the solve needs; any prime is sound.
_PRIME = 2**61 - 1


def _solve_modular(system: InterpolationSystem) -> list[int] | None:
    """The system's integer solution, found mod _PRIME and checked exactly,
    or None.

    The rows, rhs included, are read as ints; a row built by hand with
    other entries is first scaled to integers. They are reduced mod p in
    the given order with the lead-column rule of ``_reduce_rows``, until
    full rank. Back-substitution gives each
    coefficient mod p, lifted to its symmetric residue. Full rank mod p
    implies full rank over Q, so a candidate that satisfies every row
    exactly is the unique solution. A rank short mod p, a row whose only
    surviving entry mod p is the rhs, or a failed check (an unlucky prime,
    or a solution that is not an integer of at most 60 bits) gives None.
    """
    unknowns = system.unknowns
    rows = []
    for row in system.rows:
        entries = [*row.coefficients, row.rhs]
        if any(type(c) is not int for c in entries):
            entries, _ = _clear_denominators(entries)
        rows.append(entries)
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        work = list(row)
        for lead, pivot in kept:
            factor = work[lead] % _PRIME
            if factor:  # entries are reduced once, after the last update
                work[lead:] = [a - factor * b for a, b in zip(work[lead:], pivot[lead:])]
        work = [a % _PRIME for a in work]
        lead = next((j for j, a in enumerate(work) if a), None)
        if lead is None:
            continue
        if lead == unknowns:
            return None
        inv = pow(work[lead], -1, _PRIME)
        work[lead:] = [a * inv % _PRIME for a in work[lead:]]
        kept.append((lead, work))
        if len(kept) == unknowns:
            break
    else:
        return None
    solution = [0] * unknowns
    for lead, work in sorted(kept, key=lambda k: k[0], reverse=True):
        acc = work[unknowns] - sum(work[j] * solution[j] for j in range(lead + 1, unknowns))
        solution[lead] = acc % _PRIME
    solution = [x - _PRIME if x > _PRIME // 2 else x for x in solution]
    if all(sum(a * x for a, x in zip(row, solution)) == row[unknowns] for row in rows):
        return solution
    return None


def _eliminate(system: InterpolationSystem) -> list[tuple[tuple[int, ...], int, list[Fraction]]]:
    """Exact elimination over the rows in their given order, returning
    (diagonal, pivot column, reduced row) for each row kept.

    The rows, with the rhs as a last column, go through the shared row
    reduction: a row's pivot column is its first surviving coefficient, and
    a row whose only surviving entry is the rhs leaves a residual, so the
    system lies about its cone. Every row is checked, also after full rank.
    """
    unknowns = system.unknowns
    kept = []
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
        kept.append((row.diagonal, lead, work))
    if len(kept) < unknowns:
        raise RankDeficientError(
            f"only {len(kept)} independent rows for {unknowns} unknowns",
            rank=len(kept),
            unknowns=unknowns,
            skipped=tuple(tuple(i + 1 for i in d) for d in system.skipped),
        )
    return kept


def solve_with_details(system: InterpolationSystem) -> tuple[HomogeneousPolynomial, SolveDetails]:
    """The exact solution of the system over its scale, and its details.

    The solve mod p (``_solve_modular``) is tried first; every solution it
    returns has been checked against every row exactly. When it gives
    none, exact elimination (``_eliminate``) solves the system or raises
    InconsistentError or RankDeficientError. Either way the pivots in the
    details are those of the exact elimination, computed when first read.
    """
    unknowns = system.unknowns
    for row in system.rows:
        if len(row.coefficients) != unknowns:
            raise DimensionError(
                f"row for diagonal {row.diagonal} has {len(row.coefficients)} entries, expected {unknowns}"
            )
    solution = _solve_modular(system)
    if solution is None:
        solution = [ZERO] * unknowns
        for _, col, work in sorted(_eliminate(system), key=lambda k: k[1], reverse=True):
            # Entries left of the pivot column are zero by construction.
            terms = (work[j] * solution[j] for j in range(col + 1, unknowns) if work[j])
            solution[col] = work[unknowns] - sum(terms, ZERO)
    if system.scale != 1:
        solution = [Fraction(c, system.scale) for c in solution]
    poly = HomogeneousPolynomial(system.dimension, system.degree, tuple(solution))
    return poly, SolveDetails(rank=unknowns, system=system)


def solve_exact(system: InterpolationSystem) -> HomogeneousPolynomial:
    """Solve the interpolation system, verifying every dependent row."""
    poly, _ = solve_with_details(system)
    return poly


def pk_via_interpolation(cone: Cone) -> HomogeneousPolynomial:
    """Numerator polynomial of the cone transform, recovered by solving
    the diagonal interpolation system. Agrees exactly with
    pk_via_triangulation whenever both pipelines succeed."""
    return solve_exact(build_system(cone))
