"""Exact linear feasibility through a small phase-one simplex method.

All arithmetic stays in ``Fraction`` and pivoting follows Bland's rule, so
answers are exact and every run is deterministic and finite. No module of
the package calls it: ``cones.validate_cone`` reads pointedness, its
witness and the redundant generators off one double description. It is
kept as the reference LP that the tests check those answers against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .geometry import ONE, ZERO, as_scalar


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Find x >= 0 with (rows) x = rhs, or return None when infeasible.

    Phase-one simplex: minimize the sum of artificial variables. Artificial
    columns never re-enter the basis, which is sound because any feasible
    point of the original system has all artificials at zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau: list[list[Fraction]] = []
    for row, beta in zip(rows, rhs):
        r = [as_scalar(a) for a in row]
        b = as_scalar(beta)
        if b < 0:
            r = [-a for a in r]
            b = -b
        tableau.append(r + [ZERO] * m + [b])
    for i in range(m):
        tableau[i][n + i] = ONE
    basis = list(range(n, n + m))
    last = n + m

    while True:
        entering = None
        for j in range(n):
            # Reduced cost: artificials have unit cost, real columns zero.
            reduced = -sum(tableau[i][j] for i in range(m) if basis[i] >= n)
            if reduced < 0:
                entering = j  # Bland: smallest eligible index
                break
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][last] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise RuntimeError("phase-one objective is bounded; no pivot row found")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [a / pivot for a in tableau[leaving]]
        pivot_row = tableau[leaving]
        for i in range(m):
            factor = tableau[i][entering]
            if i != leaving and factor != 0:
                tableau[i] = [a - factor * p for a, p in zip(tableau[i], pivot_row)]
        basis[leaving] = entering

    residue = sum((tableau[i][last] for i in range(m) if basis[i] >= n), ZERO)
    if residue != 0:
        return None
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][last]
    return tuple(x)
