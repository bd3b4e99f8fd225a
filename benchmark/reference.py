"""Reference computations that the benchmark checks the program against.

Nothing here imports ``conefourier``: duals, determinants, volumes and
transforms are recomputed from their definitions, so a check passes only
when the program agrees with an independent derivation.

Conventions shared with the program's wire format, and no more:

- the dual of a (d-1)-subset D is the vector r with <r, x> = det(w_D, x),
  x taken as the last row;
- monomials of one degree are listed with exponent vectors in
  lexicographically descending order (the documented wire order), which
  only matters for the sign of a Veronese minor.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

EPS = 2.0**-52


def det(rows) -> Fraction:
    """Exact determinant: cofactor expansion along the first row up to 5x5,
    which keeps integer input in integers, and ``det_elim`` beyond."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n > 5:
        return det_elim(m)
    total = 0
    for k, a in enumerate(m[0]):
        if a:
            sub = [row[:k] + row[k + 1 :] for row in m[1:]]
            term = a * det(sub)
            total += term if k % 2 == 0 else -term
    return total


def det_elim(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(a) for a in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return result


def dual(rows, d: int) -> tuple:
    """Cofactor vector r of d-1 rows in dimension d: <r, x> = det(rows, x)."""
    out = []
    for k in range(d):
        minor = det([row[:k] + row[k + 1 :] for row in map(list, rows)])
        out.append(minor if (d - 1 + k) % 2 == 0 else -minor)
    return tuple(out)


def inner(u, v):
    return sum(a * b for a, b in zip(u, v))


def exact(value):
    """An integral Fraction as an int, anything else unchanged; integer
    arithmetic keeps the checks cheap on integer cones."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def exact_vector(v) -> tuple:
    return tuple(exact(c) for c in v)


def monomials(d: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of one total degree, lexicographically descending."""
    if d == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in monomials(d - 1, degree - e)]


def veronese_row(point, degree: int) -> list:
    return [math.prod(c**e for c, e in zip(point, exps)) for exps in monomials(len(point), degree)]


def poly_value(terms, point) -> Fraction:
    """Value of sum(coeff * x^exponents) over (exponents, coeff) pairs."""
    return sum(exact(c) * math.prod(x**e for x, e in zip(point, exps)) for exps, c in terms)


def dense_terms(d: int, degree: int, coefficients):
    """Pair dense coefficients with their exponent vectors."""
    return list(zip(monomials(d, degree), coefficients))


# --- cone numerators ---------------------------------------------------------


def diagonal_values(generators):
    """Yield (dual, expected value of p_K there) for every diagonal.

    For a (d-1)-subset D with dual r, <r, w_j> = det(D, w_j). When these
    share one sign s over j outside D (an extremal diagonal) p_K(r) is
    s * prod(<r, w_j>); when they have both signs it is 0. A zero pairing
    leaves the value undefined and raises ValueError: the cones checked
    here are in general position."""
    generators = [exact_vector(g) for g in generators]
    n, d = len(generators), len(generators[0])
    for idx in combinations(range(n), d - 1):
        r = dual([generators[i] for i in idx], d)
        pairings = [inner(r, generators[j]) for j in range(n) if j not in idx]
        if any(p == 0 for p in pairings):
            raise ValueError(f"diagonal {idx} is degenerate")
        signs = {p > 0 for p in pairings}
        if len(signs) == 2:
            yield r, Fraction(0)
        else:
            value = math.prod(pairings)
            yield r, value if signs.pop() else -value


def check_diagonal_values(generators, terms) -> bool:
    """True when the polynomial given by (exponents, coeff) terms takes the
    paper's value at every diagonal dual of the cone."""
    return all(poly_value(terms, r) == value for r, value in diagonal_values(generators))


def vervan_expected(generators, family):
    """(exact minor, predicted |minor| under the product formula) for a
    family of (d-1)-subsets (0-based) of the cone's generators. The rows
    follow the family in sorted order."""
    generators = [exact_vector(g) for g in generators]
    n, d = len(generators), len(generators[0])
    fam = sorted(tuple(sorted(m)) for m in family)
    rows = [veronese_row(dual([generators[i] for i in m], d), n - d) for m in fam]
    exact = det_elim(rows)
    product = 1
    for simplex in combinations(range(n), d):
        mult = sum(1 for m in fam if set(m) <= set(simplex))
        if mult > 1:
            product *= abs(det([generators[i] for i in simplex])) ** (mult - 1)
    return exact, product


def check_vervan_record(generators, family, minor: Fraction, witness) -> bool:
    """A record is right when its minor is the exact Veronese minor, is 0
    exactly when it carries a witness, and otherwise has the product's
    absolute value."""
    exact, product = vervan_expected(generators, family)
    if minor != exact:
        return False
    if witness:
        return minor == 0
    return minor != 0 and abs(minor) == product


# --- polytopes ---------------------------------------------------------------


def moment_curve(ts, d: int):
    return [tuple(Fraction(t) ** k for k in range(1, d + 1)) for t in ts]


def gale_facets(n: int, d: int):
    """Facets of the cyclic polytope C(n, d) on points in increasing order
    along the curve, by Gale's evenness condition."""
    out = []
    for subset in combinations(range(n), d):
        chosen = set(subset)
        outside = [i for i in range(n) if i not in chosen]
        if all(sum(1 for k in range(a + 1, b) if k in chosen) % 2 == 0 for a, b in zip(outside, outside[1:])):
            out.append(subset)
    return out


def cyclic_facet_count(n: int, d: int) -> int:
    """n(n-3)/2 for d = 4 and 2n-4 for d = 3, the simplicial counts."""
    if d == 4:
        return n * (n - 3) // 2
    if d == 3:
        return 2 * n - 4
    raise ValueError("facet counts are known here for d = 3 and d = 4")


def centroid(points):
    k = len(points)
    return tuple(sum(coords, Fraction(0)) / k for coords in zip(*points))


def coned_simplices(points, facets):
    """Simplices (as vertex tuples) coning each facet from the centroid."""
    c = centroid(points)
    return [(c,) + tuple(points[i] for i in facet) for facet in facets]


def simplex_volume(simplex) -> Fraction:
    base = simplex[0]
    d = len(base)
    return Fraction(abs(det([[a - b for a, b in zip(u, base)] for u in simplex[1:]])), math.factorial(d))


def box_vertices(sides):
    vertices = [()]
    for a in sides:
        vertices = [v + (Fraction(0),) for v in vertices] + [v + (Fraction(a),) for v in vertices]
    return sorted(vertices)


def octahedron(axes):
    """Vertices +-a_k e_k (in the order +a_1, -a_1, +a_2, ...) and the 2^d
    facets, one per orthant."""
    d = len(axes)
    vertices = []
    for k, a in enumerate(axes):
        for s in (1, -1):
            vertices.append(tuple(Fraction(s * a) if j == k else Fraction(0) for j in range(d)))
    facets = [tuple(2 * k + (signs >> k & 1) for k in range(d)) for signs in range(2**d)]
    return vertices, facets


def lawrence_volume(terms, z) -> Fraction:
    """(-1)^d/d! * sum over vertex terms of <v - c, z>^d p_v(z) / prod <w, z>.

    ``terms`` holds (apex, generators, numerator terms) per vertex. This is
    the degree-0 part of Brion's sum for the polytope moved by -c, so its
    volume, whenever no <w, z> vanishes. The shift c puts every vertex at a
    positive height <v - c, z>, so that each vertex's numerator counts; at
    c = 0 a vertex at the origin would drop out of the sum."""
    d = len(z)
    heights = [inner(apex, z) for apex, _, _ in terms]
    base = min(heights) - 1
    total = Fraction(0)
    for height, (_, generators, numerator) in zip(heights, terms):
        value = Fraction((height - base) ** d * poly_value(numerator, z))
        for w in generators:
            value /= inner(w, z)
        total += value
    return (-1) ** d * total / math.factorial(d)


# --- floating transforms -------------------------------------------------------


def simplex_transform(simplex, xi) -> tuple[complex, float]:
    """(integral of e^{2 pi i <x, xi>} over the simplex, sum of |terms|)
    by d! vol * sum_i e^{z_i} / prod_{j != i}(z_i - z_j), z_i = 2 pi i <u_i, xi>.
    The <u_i, xi> must be pairwise distinct."""
    scale = float(math.factorial(len(xi)) * simplex_volume(simplex))
    heights = [inner(u, xi) for u in simplex]
    total = 0j
    size = 0.0
    for i, hi in enumerate(heights):
        denominator = 1 + 0j
        for j, hj in enumerate(heights):
            if j != i:
                denominator *= 2j * math.pi * float(hi - hj)
        term = cmath.exp(2j * math.pi * float(hi)) / denominator
        total += term
        size += abs(term)
    return scale * total, scale * size


def simplices_transform(simplices, xi) -> tuple[complex, float]:
    total, size = 0j, 0.0
    for simplex in simplices:
        value, s = simplex_transform(simplex, xi)
        total += value
        size += s
    return total, size


def box_transform(sides, xi) -> tuple[complex, float]:
    """prod (e^{2 pi i a_k xi_k} - 1) / (2 pi i xi_k); its factors do not cancel."""
    value = 1 + 0j
    for a, x in zip(sides, xi):
        value *= (cmath.exp(2j * math.pi * float(Fraction(a) * x)) - 1) / (2j * math.pi * float(x))
    return value, abs(value)


def brion_term_size(points, facets, xi) -> float:
    """Sum over vertices v of |p_v(xi) / ((2 pi)^d prod <w, xi>)|, the size
    of the terms Brion's sum adds up, for a simplicial polytope.

    Pulling from v triangulates the tangent cone at v into the cones over
    F - v, F a facet avoiding v, so the rational function of the tangent
    cone is sum |det(F - v)| / prod_{f in F} <f - v, xi>; no numerator from
    the program is needed."""
    d = len(xi)
    size = 0.0
    for v, apex in enumerate(points):
        value = Fraction(0)
        for facet in facets:
            if v in facet:
                continue
            rays = [tuple(a - b for a, b in zip(points[f], apex)) for f in facet]
            term = Fraction(abs(det(rays)))
            for ray in rays:
                term /= inner(ray, xi)
            value += term
        size += abs(float(value))
    return size / (2 * math.pi) ** d


def box_term_size(sides, xi) -> float:
    """The same size for a box: each of its 2^d simplicial vertex terms has
    modulus 1 / ((2 pi)^d prod |xi_k|)."""
    d = len(xi)
    return 2**d / ((2 * math.pi) ** d * abs(float(math.prod(xi))))


def close(value: complex, reference: complex, sizes) -> bool:
    """Relative agreement within a tolerance that grows with cancellation.

    A floating sum of terms of total size S carries an error of a few units
    of S * eps per term; dividing by |reference| gives the cancellation
    ratio S / |sum|. The factor 1024 covers the term count and the error
    of each exp and product."""
    magnitude = abs(reference)
    if magnitude == 0:
        return False
    ratio = max(sizes) / magnitude
    return abs(value - reference) <= 1024 * EPS * max(ratio, 1.0) * magnitude


def generic_point(rng, d: int, forbidden, numerator: int, denominator: tuple[int, int]):
    """A seeded rational point at which no vector in ``forbidden`` pairs to 0."""
    while True:
        point = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, numerator), rng.randint(*denominator)) for _ in range(d)
        )
        if all(inner(v, point) != 0 for v in forbidden):
            return point


def differences(points):
    return [tuple(a - b for a, b in zip(u, v)) for u, v in combinations(points, 2)]
