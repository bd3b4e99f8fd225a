"""Cone Fourier transform numerators via diagonal interpolation.

Every diagonal of the cone supplies one exact value of the numerator
polynomial p_K at the diagonal's dual vector: a signed product of
determinants for extremal diagonals, zero for interior ones. Expanding the
duals through the Veronese map turns these values into an overdetermined
linear system for the coefficients of p_K. The system is built on the
cone's integer-normal form (``Cone.integer_generators``), whose numerator
is ``Cone.scale`` times p_K and has integer coefficients, so rows, values
and solution are ints and the solve divides by the scale once at the end.
Values and duals are both read off the cone's minor table, one read of
each diagonal's pairings serving both. The system is built a block of
diagonals at a time, column by column: the block's duals as d coordinate
columns, by Cramer's rule through one adjugate (``Cone._dual_columns``),
and then one column per monomial (``geometry.veronese_columns``), turned
into rows at the end of the block. The system is solved by one
elimination modulo a prime on rows packed in 8-byte slots, the prime sized
to the row width so that no slot overflows and the anchor-star rows first,
and then by Dixon's p-adic lifting, one O(N^2) pass per further base-p
digit of the coefficients. The candidate is accepted only when it
satisfies every row exactly. Otherwise, and for the pivots, exact
elimination in ``int`` on primitive rows decides. Both read the rows as
ints by ``geometry._integer_rows``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, compress, count, islice, repeat
from math import gcd, isqrt, prod
from operator import mul
from sys import byteorder
from typing import Iterable, Iterator, Sequence

from .cones import Cone, Diagonal, DiagonalKind, classify_pairings
from .errors import (
    DegenerateDiagonalError,
    DimensionError,
    InconsistentError,
    RankDeficientError,
)
from .geometry import _BLOCK, ZERO, _integer_rows, basis_size, veronese_columns
from .polynomials import HomogeneousPolynomial

_SLOT_MASK = (1 << 64) - 1


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


def _row_value(pairings: Sequence[int]) -> int | None:
    """The row-value rule, from a diagonal's pairings: None when degenerate
    (no defined value), 0 when interior, and when extremal their common
    sign times their product."""
    cls = classify_pairings(pairings)
    if cls.kind is DiagonalKind.DEGENERATE:
        return None
    return 0 if cls.kind is DiagonalKind.INTERIOR else cls.sign * prod(pairings)


def rhs_value(cone: Cone, diagonal: Diagonal) -> Fraction:
    """The exact value of p_K at the diagonal's dual vector (``_row_value``);
    DegenerateDiagonalError for a degenerate diagonal. The integer
    pairings' product is the rational one times C * c_D^(n-d), C the cone's
    scale and c_D the product of the diagonal's scales."""
    value = _row_value(cone.integer_pairings(diagonal.indices))
    if value is None:
        wire = tuple(i + 1 for i in diagonal.indices)
        raise DegenerateDiagonalError(f"diagonal {wire} is degenerate", diagonal=wire)
    c_d = prod(cone.scales[i] for i in diagonal.indices)
    return Fraction(value, cone.scale * c_d ** (cone.num_generators - cone.dimension))


def build_system(cone: Cone) -> InterpolationSystem:
    """One row per non-degenerate diagonal, on the integer generators u: the
    Veronese expansion of the dual of u_D (``Cone._dual_columns``) against
    the value there of the numerator of u, all ints. Degenerate diagonals
    are recorded in ``skipped`` instead of contributing a row, and
    ``scale`` is the cone's, so that the system's solution over it is p_K.
    The rows are made ``_BLOCK`` diagonals at a time, so that the columns
    of a block, not of the whole system, sit beside the finished rows."""
    degree = cone.num_generators - cone.dimension
    rows: list[SystemRow] = []
    skipped = []
    diagonals = combinations(range(cone.num_generators), cone.dimension - 1)
    while block := list(islice(diagonals, _BLOCK)):
        kept, pairings, values = [], [], []
        for indices in block:
            read = cone.integer_pairings(indices)
            rhs = _row_value(read)
            if rhs is None:
                skipped.append(indices)
                continue
            kept.append(indices)
            pairings.append(read)
            values.append(rhs)
        if kept:
            columns = veronese_columns(cone._dual_columns(kept, pairings), degree)
            rows.extend(map(SystemRow, kept, zip(*columns), values))
    return InterpolationSystem(cone.dimension, degree, tuple(rows), tuple(skipped), cone.scale)


@cache
def _prime(width: int) -> int:
    """The largest prime below 2^k, k = (64 - width.bit_length()) // 2, so
    that ``_reduce_mod`` holds rows of ``width`` entries mod it in 8-byte
    slots. Found by trial division, once per width and process: k <= 31,
    so at most 23,170 odd divisors a candidate. Threads racing on the cache
    compute equal values."""
    k = (64 - width.bit_length()) // 2
    return next(q for q in range((1 << k) - 1, 2, -2) if all(q % f for f in range(3, isqrt(q) + 1, 2)))


def _pack(entries: Sequence[int]) -> int:
    """Entries in [0, 2^64) as one int of 64-bit slots, last entry lowest."""
    return int.from_bytes(array("Q", entries[::-1]).tobytes(), byteorder)


def _reduce_mod(
    rows: Iterable[Sequence[int]], width: int, p: int
) -> Iterator[tuple[int, list[int], list[int], int] | tuple[None, None, None, None]]:
    """The lead-column rule of ``_eliminate`` mod the prime p, on int rows
    of ``width`` entries: yields ``(lead, kept, factors, inv)`` per row,
    kept the reduced row over its lead entry, in [0, p), or
    ``(None, None, None, None)`` for a row that vanishes mod p. ``factors[k]`` is the row's entry mod p at the
    lead of the k-th pivot kept before it, when that pivot came up (0 if
    it was not applied), and inv the inverse of the row's lead entry, so
    ``(r - sum(factors[k] * s[k])) * inv`` mod p replays the reduction on a
    new last column: r the row's entry there, s[k] the reduced entries of
    the kept rows before it.

    A row is one int of 64-bit slots, last entry lowest, packed from and
    unpacked to an ``array("Q")``, so a pivot (zero left of its lead l) is
    a short int, applied as ``acc += (p - f) * pivot`` with f the row's
    slot l mod p. Slots start below p and take at most ``width`` updates of
    at most (p-1)^2, so none carries before the row is unpacked and reduced
    once if p + width * (p-1)^2 < 2^64; ValueError for a larger p.
    """
    if (p + width * (p - 1) ** 2) >> 64:
        raise ValueError(f"prime {p} overflows 8-byte slots at width {width}")
    kept: list[tuple[int, int]] = []
    for row in rows:
        acc = _pack([a % p for a in row])
        factors = []
        for shift, pivot in kept:
            f = (acc >> shift & _SLOT_MASK) % p
            factors.append(f)
            if f:
                acc += (p - f) * pivot
        work = [a % p for a in reversed(array("Q", acc.to_bytes(8 * width, byteorder)))]
        lead = next(compress(count(), work), None)
        if lead is None:
            yield None, None, None, None
            continue
        inv = pow(work[lead], -1, p)
        tail = [a * inv % p for a in work[lead:]]
        work[lead:] = tail
        kept.append((64 * (width - 1 - lead), _pack(tail)))
        yield lead, work, factors, inv


def _solve_modular(system: InterpolationSystem) -> list[int] | None:
    """The system's integer solution, lifted p-adically from one reduction
    modulo a prime and checked exactly, or None.

    The rows, rhs included, are read as ints (``_integer_rows``), those
    whose diagonal avoids generator 0 first: under general position they
    are the independent anchor-star family (DECISIONS.md).
    ``_reduce_mod`` reduces them mod the prime p for their width
    (``_prime``) until full rank, which holds over Q too, so the kept
    square block B with rhs b has one solution x. Dixon's lifting finds
    its balanced base-p digits: the first, y, by back-substitution on the
    reduced rhs; then, while r = (b - B (y_0 + ... + y_i p^i)) / p^(i+1) is
    not zero, the next by replaying the reduction's factors on r mod p and
    back-substituting, all O(N^2). r = 0 means the digits so far solve B
    exactly; they are returned if every other row holds in int. An
    integral x has |x_i| <= H, H the product of the block's row norms
    (Cramer, Hadamard), so it has at most k digits once p^k > 2H. None
    when the rank falls short mod p or a row leaves only its rhs, when the
    lift solves the block but not another row (so the system is
    inconsistent), or when r is still not zero once p^k > 2H (so x is not
    integral).
    """
    unknowns = system.unknowns
    ordered = sorted(system.rows, key=lambda r: 0 in r.diagonal)
    rows, _ = _integer_rows([[*row.coefficients, row.rhs] for row in ordered])
    p = _prime(unknowns + 1)
    kept = []
    for r, (lead, work, factors, inv) in enumerate(_reduce_mod(rows, unknowns + 1, p)):
        if lead is None:
            continue
        if lead == unknowns:
            return None
        kept.append((r, lead, work, factors, inv))
        if len(kept) == unknowns:
            break
    if len(kept) < unknowns:
        return None
    half = p // 2
    stairs = sorted(
        ((lead, work[lead + 1 : unknowns], k) for k, (_, lead, work, _, _) in enumerate(kept)), reverse=True
    )

    def digit(reduced: list[int]) -> list[int]:
        """The balanced solution mod p of B y = r, from r's reduced entries."""
        y = [0] * unknowns
        for lead, tail, k in stairs:
            s = (reduced[k] - sum(map(mul, tail, y[lead + 1 :]))) % p
            y[lead] = s - p if s > half else s
        return y

    block = [rows[r] for r, _, _, _, _ in kept]
    solution = digit([work[unknowns] for _, _, work, _, _ in kept])
    residual = [row[unknowns] - sum(map(mul, row, solution)) for row in block]  # p * r
    modulus, bound = p, None
    while any(residual):
        if bound is None:
            bound = 4 * prod(sum(map(mul, row, row)) for row in block)
        if modulus * modulus > bound:
            return None
        residual = [t // p for t in residual]
        reduced: list[int] = []
        for t, (_, _, _, factors, inv) in zip(residual, kept):
            reduced.append((t - sum(map(mul, factors, reduced))) * inv % p)
        y = digit(reduced)
        residual = [t - sum(map(mul, row, y)) for t, row in zip(residual, block)]
        solution = [x + modulus * c for x, c in zip(solution, y)]
        modulus *= p
    others = set(range(len(rows))).difference(r for r, _, _, _, _ in kept)
    return solution if all(sum(map(mul, rows[r], solution)) == rows[r][unknowns] for r in others) else None


def _eliminate(system: InterpolationSystem) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """Exact elimination over the rows in their given order, returning
    (diagonal, pivot column, reduced row) for each row kept.

    The rows, rhs as a last column, are read as ints (``_integer_rows``)
    and kept primitive: a kept row t with lead l updates a row r with
    f = r_l != 0 to t_l r - f t over the gcd of its entries, a nonzero
    multiple of the rational update. So a row's pivot column is its first
    surviving coefficient, as over Q, and a row whose only surviving entry
    is the rhs leaves the rational residual, over its own scale, so the
    system lies about its cone. Every row is checked, also after full rank.
    """
    unknowns = system.unknowns
    rows, scales = _integer_rows([[*row.coefficients, row.rhs] for row in system.rows])
    kept = []
    for row, work, scale in zip(system.rows, rows, scales or repeat(1)):
        steps = []  # work is scale * prod(t_l) / prod(g) over steps times the rational row
        for _, lead, pivot in kept:
            factor = work[lead]
            if factor:
                work = [pivot[lead] * a - factor * b for a, b in zip(work, pivot)]
                g = gcd(*work) or 1
                work = [a // g for a in work]
                steps.append((pivot[lead], g))
        lead = next(compress(count(), work), None)
        if lead is None:
            continue
        if lead == unknowns:
            value = Fraction(work[lead] * prod(g for _, g in steps), scale * prod(t for t, _ in steps))
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
            wire = tuple(i + 1 for i in row.diagonal)
            message = f"row for diagonal {wire} has {len(row.coefficients)} entries, expected {unknowns}"
            raise DimensionError(message, diagonal=wire)
    solution = _solve_modular(system)
    if solution is None:
        solution = [ZERO] * unknowns
        for _, col, work in sorted(_eliminate(system), key=lambda k: k[1], reverse=True):
            # Entries left of the pivot column are zero by construction.
            terms = (work[j] * solution[j] for j in range(col + 1, unknowns) if work[j])
            solution[col] = (work[unknowns] - sum(terms, ZERO)) / work[col]
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
