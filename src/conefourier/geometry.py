"""Exact rational linear algebra and the Veronese monomial map.

Scalars are Python ``int`` or ``fractions.Fraction`` values, so every
operation in this module is exact; floats are refused. ``determinant``,
``maximal_minors``, ``generalized_cross`` and ``veronese`` keep integer
input on ``int`` arithmetic and return ints for it, which is what the
integer-normal form of a cone (``Cone.integer_generators``) runs on; other
input gives Fractions. ``maximal_minors`` gives a list in ``combinations``
order, filled through ``_pairing_table``, which ``cones`` reads it by too.
Vectors are plain tuples, matrices are sequences of equal-length row
vectors, and nothing here mutates its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, cycle
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating-point input would break exactness; use Fraction")
    return Fraction(value)


def as_vector(coords: Iterable) -> Vector:
    return tuple(as_scalar(c) for c in coords)


def _exact(value) -> int | Fraction:
    """An int as it is, anything else through ``as_scalar``."""
    return value if type(value) is int else as_scalar(value)


def _clear_denominators(row: Iterable) -> tuple[list[int], int]:
    """The row times the lcm m of its denominators, as ints, and m."""
    entries = [as_scalar(a) for a in row]
    scale = lcm(*(a.denominator for a in entries))
    return [a.numerator * (scale // a.denominator) for a in entries], scale


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"difference of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(scalar, v: Sequence[Fraction]) -> Vector:
    s = as_scalar(scalar)
    return tuple(s * c for c in v)


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in v)


def _reduce_rows(rows: Iterable[Sequence[Fraction]], width: int) -> Iterator[tuple[int | None, Fraction, list | None]]:
    """The one exact elimination over Q, behind the exact interpolation
    solve. Callers check that every row has ``width`` entries.

    Reduces each row, in the order given, against the rows kept before it
    and yields ``(lead, value, kept)``: the column and value of the reduced
    row's first nonzero entry, and the reduced row divided by that value,
    which is kept; a row that vanishes yields ``(None, ZERO, None)``. A kept
    row is zero left of its lead and at every earlier lead, so each update
    starts at the pivot's lead column.
    """
    kept: list[tuple[int, list]] = []
    for row in rows:
        work = list(row)
        for lead, pivot in kept:
            factor = work[lead]
            if factor:
                work[lead] = ZERO  # pivot[lead] is 1
                for j in range(lead + 1, width):
                    b = pivot[j]
                    if b:
                        work[j] -= factor * b
        for lead, value in enumerate(work):
            if value:
                break
        else:
            yield None, ZERO, None
            continue
        inv = ONE / value
        work[lead:] = [a * inv for a in work[lead:]]
        kept.append((lead, work))
        yield lead, value, work


def determinant(rows: Sequence[Sequence]) -> int | Fraction:
    """Exact determinant of a square matrix, by fraction-free (Bareiss)
    elimination: every intermediate entry is a minor of the matrix, so each
    division is exact and no gcd is taken. All-int input gives an int.
    Otherwise each row is first scaled to integers
    (``_clear_denominators``) and the result, a Fraction, is divided by the
    product of the scales. The empty 0x0 matrix has determinant 1."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError(f"determinant needs a square matrix, got rows {[len(r) for r in m]}")
    scale = None
    if not all(type(a) is int for row in m for a in row):
        scale = 1
        for i, row in enumerate(m):
            m[i], factor = _clear_denominators(row)
            scale *= factor
    sign, previous = 1, 1
    for k in range(n - 1):
        swap = next((i for i in range(k, n) if m[i][k]), None)
        if swap is None:
            return 0 if scale is None else ZERO
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k]
            row[k + 1 :] = [(pivot * a - factor * b) // previous for a, b in zip(row[k + 1 :], top[k + 1 :])]
        previous = pivot
    result = sign * m[-1][-1] if n else 1
    return result if scale is None else Fraction(result, scale)


@lru_cache(maxsize=None)
def _pairing_table(n: int, k: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """{D: (slots, signs, offs)} for every sorted (k-1)-subset D of range(n),
    in ``combinations`` order: for each j off D, in offs in index order, the
    position of S = sorted(D + (j,)) among the k-subsets in ``combinations``
    order and (-1)^#{i in D : i > j}, so that det(a_D..., a_j) = sign * det a_S.
    The one statement of that sign rule, also the Laplace sign of
    ``maximal_minors``; it depends only on the shape, so it is kept."""
    table = {members: ([], [], []) for members in combinations(range(n), k - 1)}
    for position, subset in enumerate(combinations(range(n), k)):
        # combinations(subset, k - 1) drops subset[k-1], ..., subset[0] in
        # turn, so the signs alternate from +; and for each D the positions
        # arrive with j increasing.
        for sign, j, members in zip(cycle((1, -1)), reversed(subset), combinations(subset, k - 1)):
            slots, signs, offs = table[members]
            slots.append(position)
            signs.append(sign)
            offs.append(j)
    return {members: tuple(map(tuple, entry)) for members, entry in table.items()}


def maximal_minors(rows: Sequence[Sequence]) -> list[int | Fraction]:
    """The det of the rows at each sorted d-subset S, rows in S's order, of
    an n x d matrix: a list in ``combinations`` order, ints for int input.
    Computed level by level by Laplace expansion along column k-1: the minor
    M_k(S) on the rows S and the first k columns is

        M_k(S) = sum over p of (-1)^(p+k-1) a[S_p][k-1] M_{k-1}(S - S_p).

    With D = S - S_p and j = S_p, p + #{i in D : i > j} = k - 1, so the sign
    is the one ``_pairing_table(n, k)`` holds, and each M_{k-1}(D) is scattered
    into the M_k(D + (j,)) it adds to: sum_k k C(n, k) multiply-adds at most,
    zero entries and sub-minors skipped. No rows give [1]."""
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise DimensionError(f"maximal minors need rows of one length, got {[len(r) for r in rows]}")
    n = len(rows)
    previous = [1]
    for k in range(1, width + 1):
        column = [row[k - 1] for row in rows]
        current = [0] * comb(n, k)
        for sub, (slots, signs, offs) in zip(previous, _pairing_table(n, k).values()):
            if sub:
                for slot, sign, j in zip(slots, signs, offs):
                    a = column[j]
                    if a:
                        current[slot] += sign * a * sub
        previous = current
    return previous


def generalized_cross(vectors: Sequence[Sequence], dimension: int | None = None) -> Vector:
    """The vector r with <r, x> = det(v_1, ..., v_{d-1}, x) for all x.

    Takes exactly d-1 vectors of dimension d and returns their generalized
    cross product, computed from the signed (d-1)-minors of the stacked
    input matrix, so all-int input gives ints. Linearly dependent inputs
    yield the zero vector. The ``dimension`` argument is only required when
    the input list is empty (the d = 1 case, where the result is (1,)).
    """
    vs = [tuple(v) for v in vectors]
    if dimension is None:
        if not vs:
            raise DimensionError("dimension is required for an empty input")
        dimension = len(vs[0])
    if len(vs) != dimension - 1:
        raise DimensionError(f"need {dimension - 1} vectors in dimension {dimension}, got {len(vs)}")
    if any(len(v) != dimension for v in vs):
        raise DimensionError("input vectors must all have the ambient dimension")
    out = []
    for k in range(dimension):
        minor = [v[:k] + v[k + 1 :] for v in vs]
        value = determinant(minor)
        # Sign of the cofactor of x_k when expanding det along the last row.
        out.append(value if (dimension + k) % 2 == 1 else -value)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_basis(dimension: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given total degree, lexicographically
    descending.

    This ordering is part of the wire format; for example the degree-2
    basis in three variables is
    (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1), (0,0,2).
    """
    if dimension < 1 or degree < 0:
        raise DimensionError(f"invalid monomial basis ({dimension}, {degree})")
    if dimension == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomial_basis(dimension - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(dimension: int, degree: int) -> dict[tuple[int, ...], int]:
    """Position of each exponent vector within monomial_basis."""
    return {e: i for i, e in enumerate(monomial_basis(dimension, degree))}


def basis_size(dimension: int, degree: int) -> int:
    return comb(dimension + degree - 1, dimension - 1)


def veronese(v: Sequence, degree: int) -> Vector:
    """Evaluate every monomial of the given degree at v, in basis order.
    An all-int v gives ints."""
    coords = [_exact(c) for c in v]
    if not coords or degree < 0:
        raise DimensionError(f"invalid monomial basis ({len(coords)}, {degree})")
    # tails[t] is the degree-t image of the coordinates taken so far, last
    # first; in basis order the first coordinate's exponent descends. The
    # first coordinate, taken last, is expanded into the degree-``degree``
    # tail alone, the one returned.
    tails = [[coords[-1] ** t] for t in range(degree + 1)]
    for i in range(len(coords) - 2, -1, -1):
        powers = [coords[i] ** e for e in range(degree + 1)]
        low = degree if i == 0 else 0
        tails[low:] = [[powers[e] * x for e in range(t, -1, -1) for x in tails[t - e]] for t in range(low, degree + 1)]
    return tuple(tails[degree])
