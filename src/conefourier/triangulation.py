"""Cone Fourier transform numerators via triangulation.

Splitting a cone into simplicial pieces and summing the pieces' transforms
over the common denominator prod(<w_i, xi>) yields the numerator
polynomial p_K directly:

    p_K = sum over simplices S of |det(S)| * prod(<w_j, xi> for j not in S)

This is the reference pipeline that the interpolation route is checked
against. It reads the generators and their minors only, and expands the
products a block of simplices at a time, a column per monomial
(``geometry.product_columns``), in ``int`` on the integer generators.
``ConicTransform.integer_form`` scales its generators by ``geometry._integer_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import prod
from typing import Sequence

from .cones import Cone, DiagonalKind, classify_pairings, is_general_position
from .errors import DimensionError, NotGenericError, SingularSimplexError
from .geometry import _BLOCK, Vector, _clear_denominators, _exact, _integer_rows, basis_size, product_columns
from .polynomials import HomogeneousPolynomial


@dataclass(frozen=True)
class Triangulation:
    """Simplicial pieces of a cone, each a sorted d-subset of generator indices."""

    simplices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConicTransform:
    """The exact data of a cone's Fourier transform: the numerator
    polynomial over the product of generator linear forms, with the phase
    factor attached to the apex. Its integer form (``integer_form``) is
    derived on first read and left out of equality, hashing and repr."""

    apex: Vector
    generators: tuple[Vector, ...]
    numerator: HomogeneousPolynomial

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...], int, tuple[int, ...], int]:
        """(u, C, a, D, v, m): each generator w_j as u_j = m_j w_j and
        C = prod m_j (``_integer_rows``; all-int generators give C = 1), the
        numerator's coefficients as a / D, and the apex as v / m, all ints.
        A float coordinate is a TypeError, and a numerator whose dimension
        or degree (n - d) does not fit the generators a DimensionError."""
        d, n, p = len(self.apex), len(self.generators), self.numerator
        if (p.dimension, p.degree) != (d, n - d) or any(len(w) != d for w in self.generators):
            raise DimensionError(
                f"a degree-{p.degree} numerator in {p.dimension} variables does not fit {n} generators in dimension {d}"
            )
        forms, scales = _integer_rows(self.generators)
        coefficients, denominator = _clear_denominators(self.numerator.coefficients)
        apex, apex_scale = _clear_denominators(self.apex)
        return (
            tuple(map(tuple, forms)),
            prod(scales or ()),
            tuple(coefficients),
            denominator,
            tuple(apex),
            apex_scale,
        )


def pulling_triangulation(cone: Cone, anchor: int = 0) -> Triangulation:
    """Triangulate by coning the anchor generator over the facets that
    avoid it.

    Under general position the facets of the cone are exactly its extremal
    diagonals, so the pieces are {anchor} united with each extremal
    diagonal not containing the anchor. Any anchor index works; the
    resulting numerator polynomial does not depend on the choice.
    """
    if not 0 <= anchor < cone.num_generators:
        raise DimensionError(f"anchor index {anchor} out of range")
    if not is_general_position(cone):
        raise NotGenericError("cone has a linearly dependent d-subset of generators")
    others = [i for i in range(cone.num_generators) if i != anchor]
    simplices = []
    for facet in combinations(others, cone.dimension - 1):
        if classify_pairings(cone.integer_pairings(facet)).kind is DiagonalKind.EXTREMAL:
            simplices.append(tuple(sorted(facet + (anchor,))))
    return Triangulation(tuple(simplices))


def simplicial_transform(cone: Cone, simplex: Sequence[int]) -> ConicTransform:
    """Transform of the simplicial cone on a d-subset of the generators:
    the numerator is the constant |det| of the selected rays."""
    idx = tuple(sorted(simplex))
    if len(idx) != cone.dimension:
        raise DimensionError(f"simplex needs {cone.dimension} indices, got {len(idx)}")
    rays = tuple(cone.generators[i] for i in idx)
    det = cone.maximal_minor(idx)
    if det == 0:
        raise SingularSimplexError(f"generators {tuple(i + 1 for i in idx)} are dependent")
    return ConicTransform(cone.apex, rays, HomogeneousPolynomial.constant(cone.dimension, abs(det)))


def expand_linear_forms(forms: Sequence[Sequence], dimension: int) -> HomogeneousPolynomial:
    """Expand prod(<v, xi>) over the given vectors into a dense polynomial,
    ``product_columns`` on a batch of one; the empty product is 1."""
    batch = [[[_exact(c)] for c in form] for form in forms]
    if any(len(form) != dimension for form in batch):
        raise DimensionError("linear form has the wrong number of variables")
    return HomogeneousPolynomial(dimension, len(batch), tuple(c for c, in product_columns([1], batch)))


def pk_via_triangulation(cone: Cone, anchor: int = 0) -> HomogeneousPolynomial:
    """Numerator polynomial of the cone transform, degree n - d: the sum of
    the module docstring over a pulling triangulation, on the integer
    generators u, over the cone's scale. Each block of ``_BLOCK`` simplices starts from their
    volumes, and its t-th form is the t-th u_j that each simplex misses."""
    triangulation = pulling_triangulation(cone, anchor)
    d, n, u = cone.dimension, cone.num_generators, cone.integer_generators
    total = [0] * basis_size(d, n - d)
    simplices = iter(triangulation.simplices)
    while block := list(islice(simplices, _BLOCK)):
        volumes = [abs(cone.integer_minor(simplex)) for simplex in block]
        missing = zip(*([j for j in range(n) if j not in simplex] for simplex in block))
        forms = (list(zip(*map(u.__getitem__, generators))) for generators in missing)
        for k, column in enumerate(product_columns(volumes, forms)):
            total[k] += sum(column)
    return HomogeneousPolynomial(d, n - d, tuple(Fraction(c, cone.scale) for c in total))
