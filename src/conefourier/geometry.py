"""Exact rational linear algebra, the Veronese map and linear products.

Scalars are Python ``int`` or ``fractions.Fraction`` values, so every
operation in this module is exact; floats are refused. Exact rows reach
``int`` in one place, ``_integer_rows``, read by ``determinant``,
``generalized_cross``, the interpolation solves and conic transforms;
these and ``veronese`` give ints for all-int input, else Fractions.
``maximal_minors`` takes int rows and gives ints, in ``combinations``
order, filled through ``_pairing_table``, which ``cones`` reads it by
too: it fills a cone's table, and nothing else. ``_echelon``
is the one elimination, fraction-free in ``int``, behind ``determinant``,
``generalized_cross`` and ``_adjugate``, which gives each greedy basis B
(the first rows each independent of those before it) with its inverse,
as |det B| B^-1 over |det B|, from one pass.
``veronese`` maps one point, level by level. ``veronese_columns`` maps a
batch of points and ``product_columns`` expands a batch of products of
linear forms, both on coordinate columns, one ``map`` at a time, by one
table per degree of each monomial as a lower one times a variable.
Vectors are plain tuples, matrices are sequences of equal-length row
vectors, and nothing here mutates its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, compress, count, cycle, islice
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
_BLOCK = 128  # points or simplices in one batch of a column kernel, which bounds its memory


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


def _integer_rows(rows: Sequence[Sequence]) -> tuple[Sequence[Sequence[int]], tuple[int, ...] | None]:
    """The one integer form of exact rows: the rows and None when every entry
    is an int, else each row times the lcm of its denominators, as ints
    (``_clear_denominators``), and the tuple of those per-row scales."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows, None
    rows, scales = zip(*map(_clear_denominators, rows))
    return list(rows), scales


def _primitive(vector: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries: the one
    integer vector on its ray whose entries have no common factor."""
    g = gcd(*vector)
    return tuple(c // g for c in vector)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"difference of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(v: Sequence[Fraction]) -> bool:
    return all(c == 0 for c in v)


def _echelon(rows: Iterable[Sequence[int]], limit: int | None = None, width: int | None = None) -> tuple[list[int], list[int], list[list[int]], int]:
    """The one fraction-free elimination, a Gauss-Jordan (Bareiss 1968) on
    int rows of one length, behind ``determinant``, ``generalized_cross``
    and ``_adjugate``.

    Reduces each row, in the order given, against the rows kept before it,
    and keeps it when something survives in its first ``width`` columns
    (all of them by default), until ``limit`` rows are kept. With ``width``
    given, the columns past it are the record of [A | I]: a row kept after
    k others gets the pivot it was scaled by at column width + k, 0 in each
    row kept before, so kept input rows R 0 there come out as [X R | X].
    Returns the kept rows' positions, their lead columns (each the first
    nonzero entry of the reduced row), the kept rows reduced against each
    other and scaled by the last pivot p, and p: the determinant of the
    kept rows on their leads, in the leads' order. A kept row is p at its
    own lead and 0 at every other, so a new row a reduces to p a - sum of
    a_l times the kept row of lead l; if it survives with lead c and value
    q there, each kept row b becomes (q b - b_c w) / p, w the reduced row,
    and q is the next pivot. Every entry so made is a minor of the rows
    (Sylvester's identity), so each division is exact."""
    positions, leads, kept, pivot = [], [], [], 1
    for position, row in enumerate(rows):
        if len(kept) == limit:
            break
        work = [pivot * a for a in row]
        for lead, top in zip(leads, kept):
            factor = row[lead]
            if factor:
                work = [a - factor * b for a, b in zip(work, top)]
        lead = next(compress(count(), islice(work, width)), None)
        if lead is None:
            continue
        if width is not None:
            work[width + len(kept)] = pivot
        value = work[lead]
        kept = [[(value * a - top[lead] * b) // pivot for a, b in zip(top, work)] for top in kept]
        kept.append(work)
        positions.append(position)
        leads.append(lead)
        pivot = value
    return positions, leads, kept, pivot


def _sign(order: Sequence[int]) -> int:
    """The sign of the permutation that sorts ``order``: +1 or -1."""
    return -1 if sum(a > b for a, b in combinations(order, 2)) % 2 else 1


def determinant(rows: Sequence[Sequence]) -> int | Fraction:
    """Exact determinant of a square matrix: by ``_echelon``, the sign of
    the leads' order times the last pivot, or 0 when a row depends on those
    before it. All-int input gives an int, other input a Fraction, over
    the product of the scales of ``_integer_rows``. The 0x0 matrix gives 1."""
    m = [list(row) for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError(f"determinant needs a square matrix, got rows {[len(r) for r in m]}")
    m, scales = _integer_rows(m)
    _, leads, _, pivot = _echelon(m)
    result = _sign(leads) * pivot if len(leads) == n else 0
    return result if scales is None else Fraction(result, prod(scales))


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[int], int, list[list[int]]]:
    """(P, L, |det B|, sign(det B) adj B): the greedy basis of the int rows
    A, each independent of those kept before it, at the positions P with
    leads L, sorted, and B those rows on the columns L, by one ``_echelon``
    of [A | I], which keeps at most as many rows as A has columns. They are
    [X A_P | X], each p at its own lead and 0 at the others, so X B = p Q,
    Q the leads' permutation and p = sign(Q) det B the last pivot: row l of
    |det B| B^-1 is sign(p) times the kept row of lead l past A. The 0x0 A
    gives ([], [], 1, [])."""
    width = len(rows[0]) if rows else 0
    positions, leads, kept, pivot = _echelon(([*row, *[0] * width] for row in rows), width, width)
    sign = 1 if pivot > 0 else -1
    inverse = [[sign * a for a in row[width : width + len(kept)]] for _, row in sorted(zip(leads, kept))]
    return positions, sorted(leads), abs(pivot), inverse


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


def maximal_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The det of the rows at each sorted d-subset S, rows in S's order, of
    an n x d int matrix: a list of ints in ``combinations`` order.
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
    cross product, the null vector of the stacked input matrix that one
    ``_echelon`` gives, scaled to the signed cofactors (DECISIONS.md):
    all-int input gives ints, any other input Fractions. Linearly
    dependent inputs yield the zero vector. The ``dimension`` argument is
    only required when the input list is empty (the d = 1 case, where the
    result is (1,)).
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
    # The cross product is multilinear: the one of the vectors scaled to
    # integers, over the product of the scales.
    vs, scales = _integer_rows(vs)
    _, leads, kept, pivot = _echelon(vs)
    cross = [0] * dimension
    if len(leads) == dimension - 1:
        (free,) = set(range(dimension)).difference(leads)
        sign = _sign(leads) * (-1) ** (dimension - 1 + free)
        cross[free] = sign * pivot
        for lead, row in zip(leads, kept):
            cross[lead] = -sign * row[free]
    return tuple(cross) if scales is None else tuple(map(Fraction, cross, [prod(scales)] * dimension))


@lru_cache(maxsize=None)
def monomial_basis(dimension: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given total degree, lexicographically
    descending.

    This ordering is part of the wire format; for example the degree-2
    basis in three variables is
    (2,0,0), (1,1,0), (1,0,1), (0,2,0), (0,1,1), (0,0,2).
    Each counts the variables of one multiset of ``degree`` of them, taken
    in ``combinations_with_replacement`` order, which is that order.
    """
    basis_size(dimension, degree)  # checks the shape
    out = []
    for chosen in combinations_with_replacement(range(dimension), degree):
        exponents = [0] * dimension
        for i in chosen:
            exponents[i] += 1
        out.append(tuple(exponents))
    return tuple(out)


@lru_cache(maxsize=None)
def _raising_pairs(dimension: int, degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each monomial m' of degree ``degree + 1``, in basis order, the
    pairs (position of m' - e_i in degree ``degree``, i), one for each i
    with m'_i > 0: the terms of [xi^m'](P l) = sum of P_(m' - e_i) l_i."""
    position = {e: k for k, e in enumerate(monomial_basis(dimension, degree))}
    return tuple(
        tuple((position[e[:i] + (a - 1,) + e[i + 1 :]], i) for i, a in enumerate(e) if a)
        for e in monomial_basis(dimension, degree + 1)
    )


def product_columns(constants: list, forms: Iterable[Sequence[list]]) -> list[list]:
    """constants[b] times prod <f[b], xi> over the forms f, for each b of a
    batch, each form given as d coordinate columns: one coefficient column
    per monomial, in the entries' own type. Step t makes each column of
    degree t + 1 by one ``map`` per pair of ``_raising_pairs``."""
    columns = [constants]
    for degree, form in enumerate(forms):
        product = []
        for (k, i), *rest in _raising_pairs(len(form), degree):
            column = map(mul, columns[k], form[i])
            for k, i in rest:
                column = map(add, column, map(mul, columns[k], form[i]))
            product.append(list(column))
        columns = product
    return columns


def basis_size(dimension: int, degree: int) -> int:
    if dimension < 1 or degree < 0:
        raise DimensionError(f"invalid monomial basis ({dimension}, {degree})")
    return comb(dimension + degree - 1, dimension - 1)


def veronese(v: Sequence, degree: int) -> Vector:
    """Evaluate every monomial of the given degree at v, in basis order.
    An all-int v gives ints, any other v Fractions. In the lexicographically
    descending basis, degree k + 1 is v_0 times all of degree k, then v_i
    times the suffix of degree k where e_0 = ... = e_(i-1) = 0, its last
    basis_size(d - i, k) monomials."""
    coords = list(v)
    d = len(coords)
    basis_size(d, degree)  # checks the shape
    if any(type(c) is not int for c in coords):
        coords = [as_scalar(c) for c in coords]
    level = [coords[0] ** 0]
    for k in range(degree):
        level = [x * m for i, x in enumerate(coords) for m in level[len(level) - basis_size(d - i, k) :]]
    return tuple(level)


def veronese_columns(columns: Sequence[list], degree: int) -> list[list]:
    """``veronese`` of a batch of points given as d coordinate columns of
    ints or Fractions: one column per monomial, in basis order, each one
    ``map`` of products over the batch, x^m' = x^(m' - e_i) x_i for the
    first pair of ``_raising_pairs``. The rows of the result,
    ``zip(*columns)``, are the points' images."""
    basis_size(len(columns), degree)  # checks the shape
    if degree == 0:
        return [[c**0 for c in columns[0]]]
    level = list(columns)
    for t in range(1, degree):
        level = [list(map(mul, level[p[0][0]], columns[p[0][1]])) for p in _raising_pairs(len(columns), t)]
    return level
