"""Dense homogeneous polynomials with exact rational coefficients, in the
monomial order of :func:`conefourier.geometry.monomial_basis`
(lexicographically descending exponent vectors), which is also the wire
order. Products of linear forms are expanded a batch at a time, a column
per monomial, by ``geometry.product_columns``, not here."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DimensionError
from .geometry import ZERO, as_scalar, as_vector, basis_size, monomial_basis, veronese


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """A homogeneous polynomial in ``dimension`` variables of total
    ``degree``, with one coefficient per monomial basis element."""

    dimension: int
    degree: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(as_scalar(c) for c in self.coefficients))
        expected = basis_size(self.dimension, self.degree)
        if len(self.coefficients) != expected:
            raise DimensionError(
                f"degree-{self.degree} polynomial in {self.dimension} variables "
                f"needs {expected} coefficients, got {len(self.coefficients)}"
            )

    @classmethod
    def zero(cls, dimension: int, degree: int) -> "HomogeneousPolynomial":
        return cls(dimension, degree, (ZERO,) * basis_size(dimension, degree))

    @classmethod
    def constant(cls, dimension: int, value) -> "HomogeneousPolynomial":
        return cls(dimension, 0, (as_scalar(value),))

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value of the polynomial at a rational point."""
        coords = as_vector(point)
        if len(coords) != self.dimension:
            raise DimensionError(f"point of length {len(coords)} for a polynomial in {self.dimension} variables")
        values = veronese(coords, self.degree)
        return sum((c * v for c, v in zip(self.coefficients, values)), ZERO)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Yield (exponents, coefficient) for the nonzero terms, in order."""
        for exponents, coeff in zip(monomial_basis(self.dimension, self.degree), self.coefficients):
            if coeff != 0:
                yield exponents, coeff

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if (self.dimension, self.degree) != (other.dimension, other.degree):
            raise DimensionError("can only add polynomials of equal dimension and degree")
        return HomogeneousPolynomial(
            self.dimension, self.degree, tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def scale(self, scalar) -> "HomogeneousPolynomial":
        s = as_scalar(scalar)
        return HomogeneousPolynomial(self.dimension, self.degree, tuple(s * c for c in self.coefficients))
