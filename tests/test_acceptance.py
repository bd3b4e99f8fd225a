"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Everything algebraic is exact (zero tolerance); only the floating
point evaluation checks carry their stated numeric tolerances.
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from conefourier import (
    Cone,
    build_system,
    diagonal_for,
    enumerate_diagonals,
    evaluate_transform,
    null_pairing,
    pk_via_interpolation,
    pk_via_triangulation,
    polytope_combinatorics,
    polytope_transform,
    rhs_value,
    verify_vervan,
)
from conefourier.errors import VerificationFailureError
from conefourier.geometry import dot
from conefourier.interpolation import pivots, solve_exact
from conefourier.sampling import sample_cone, sample_family

CORPUS_SIZES = [(d, d + extra) for d in (2, 3, 4) for extra in range(5)]


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def cone_corpus():
    """200 seeded generic pointed cones with both pipelines precomputed;
    shared between criteria 1 and 3."""
    start = time.perf_counter()
    entries = []
    for i in range(200):
        d, n = CORPUS_SIZES[i % len(CORPUS_SIZES)]
        cone = sample_cone(random.Random(7000 + i), d, n)
        by_triangulation = pk_via_triangulation(cone)
        system = build_system(cone)
        entries.append((cone, by_triangulation, system, solve_exact(system)))
    return entries, time.perf_counter() - start


def test_criterion_1_oracle_equivalence(cone_corpus):
    entries, elapsed = cone_corpus
    mismatches = sum(1 for _, tri, _, interp in entries if tri != interp)
    ok = mismatches == 0 and len(entries) == 200 and elapsed < 60.0
    report(
        1,
        ok,
        f"interpolation equals triangulation exactly on {len(entries)} seeded cones "
        f"({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_2_main_theorem_spot_values(square_cone, fan_cone):
    sq_rhs = [rhs_value(square_cone, diag) for diag in enumerate_diagonals(square_cone)]
    # The value at diagonal {1,4} is -4: both off-diagonal determinants are
    # negative there, and p_K = 4*xi_3 at its dual (1,-1,-1) confirms it.
    sq_ok = sq_rhs == [4, 0, -4, 4, 0, 4]
    sq_poly = pk_via_interpolation(square_cone).coefficients == (0, 0, 4)
    fan_rhs = [rhs_value(fan_cone, diag) for diag in enumerate_diagonals(fan_cone)]
    fan_ok = fan_rhs == [1, 0, -1]
    fan_poly = pk_via_interpolation(fan_cone).coefficients == (1, 1)
    ok = sq_ok and sq_poly and fan_ok and fan_poly
    report(
        2,
        ok,
        f"square cone rhs {sq_rhs} with p_K = 4*xi_3 ({sq_ok and sq_poly}); "
        f"fan rhs {fan_rhs} with p_K = xi_1 + xi_2 ({fan_ok and fan_poly})",
    )


def test_criterion_3_full_rank(cone_corpus):
    entries, _ = cone_corpus
    ok = True
    for cone, _, system, _ in entries:
        expected = comb(cone.num_generators - 1, cone.dimension - 1)
        if len(pivots(system)) != expected or system.skipped:
            ok = False
            break
    report(
        3,
        ok,
        "every interpolation system reached full rank C(n-1, d-1) with all "
        f"residual rows verified, across {len(entries)} cones",
    )


def test_criterion_4_minor_identities(square_cone):
    start = time.perf_counter()
    checked = filling = 0
    diagonals = list(combinations(range(4), 2))
    for family in combinations(diagonals, 3):
        record = verify_vervan(square_cone, family)  # raises on any mismatch
        checked += 1
        filling += record.fills
    exhaustive_ok = checked == 20

    rng = random.Random(404)
    random_checked = 0
    unexplained = []
    zero_filling = []
    for index in range(10):
        cone = sample_cone(rng, 3, 5 + index % 2)
        for _ in range(10):
            family = sample_family(rng, cone)
            random_checked += 1
            try:
                record = verify_vervan(cone, family)
            except VerificationFailureError:
                unexplained.append((cone.num_generators, family))
                continue
            if record.fills and record.minor == 0:
                zero_filling.append((cone.num_generators, record))
    elapsed = time.perf_counter() - start
    # The unrestricted claim "every filling family has |minor| equal to the
    # product" is false; the sample must keep showing that.
    ok = (
        exhaustive_ok
        and random_checked == 100
        and not unexplained
        and len(zero_filling) >= 1
        and elapsed < 30.0
    )
    detail = (
        f"all 20 square-cone families ({filling} filling) pass; "
        f"{random_checked - len(unexplained)}/{random_checked} random families match "
        f"the bound-or-product prediction ({elapsed:.1f}s)"
    )
    if zero_filling:
        n, record = zero_filling[0]
        detail += (
            f"; {len(zero_filling)} filling families have an identically zero minor, "
            f"falsifying the unrestricted product identity (first, n={n}: "
            f"{[[i + 1 for i in d] for d in record.family]}, witness T="
            f"{[i + 1 for i in record.witness]}); see DECISIONS.md"
        )
    if unexplained:
        n, family = unexplained[0]
        detail += f"; first unexplained, n={n}: {[[i + 1 for i in d] for d in family]}"
    report(4, ok, detail)


def test_criterion_5_null_pairings():
    rng = random.Random(505)
    intersecting = disjoint = 0
    ok = True
    while intersecting < 100 or disjoint < 100:
        d = rng.choice((2, 3, 4))
        n = d + rng.choice((1, 2, 3))
        cone = sample_cone(rng, d, n)
        diagonal = diagonal_for(cone, rng.sample(range(n), d - 1))
        if intersecting < 100:
            anchor = rng.choice(diagonal.indices)
            pool = [i for i in range(n) if i != anchor]
            chosen = [anchor] + rng.sample(pool, n - d - 1)
            value = null_pairing([cone.generators[i] for i in chosen], diagonal.dual)
            ok = ok and value == 0
            intersecting += 1
        if disjoint < 100:
            pool = [i for i in range(n) if i not in diagonal.indices]
            chosen = rng.sample(pool, n - d)
            vectors = [cone.generators[i] for i in chosen]
            value = null_pairing(vectors, diagonal.dual)
            expected = Fraction(1)
            for v in vectors:
                expected *= dot(v, diagonal.dual)
            ok = ok and value == expected and value != 0
            disjoint += 1
    report(
        5,
        ok,
        f"{intersecting} intersecting pairs vanish and {disjoint} disjoint pairs "
        "equal the nonzero determinant product, all exactly",
    )


def _box_closed_form(sides, xi):
    value = 1 + 0j
    for a, x in zip(sides, xi):
        a, x = float(a), float(x)
        value *= (cmath.exp(2j * math.pi * a * x) - 1) / (2j * math.pi * x)
    return value


def _sample_box_point(rng, sides):
    # Avoid the polar locus (xi_j = 0) and the closed form's zero set
    # (a_j * xi_j integral), where a relative comparison is undefined.
    while True:
        xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in sides)
        if any(x == 0 for x in xi):
            continue
        if any((a * x).denominator == 1 for a, x in zip(sides, xi)):
            continue
        return xi


def _box_vertices(sides):
    return [tuple(c) for c in product(*[(0, a) for a in sides])]


def test_criterion_6_box_closed_form():
    rng = random.Random(606)
    worst = 0.0

    square = polytope_transform(polytope_combinatorics(_box_vertices([1, 1])))
    for _ in range(100):
        xi = _sample_box_point(rng, [1, 1])
        got = evaluate_transform(square, xi)
        want = _box_closed_form([1, 1], xi)
        worst = max(worst, abs(got - want) / abs(want))

    spot = evaluate_transform(square, (Fraction(1, 2), Fraction(1, 2)))
    spot_ok = abs(spot - (-4 / math.pi**2)) <= 1e-9

    sides = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3)]
    box = polytope_transform(
        polytope_combinatorics(_box_vertices(sides), allow_nonsimplicial=True)
    )
    for _ in range(100):
        xi = _sample_box_point(rng, sides)
        got = evaluate_transform(box, xi)
        want = _box_closed_form(sides, xi)
        worst = max(worst, abs(got - want) / abs(want))

    ok = worst <= 1e-9 and spot_ok
    report(
        6,
        ok,
        f"unit square and random 3d box match the product closed form "
        f"(worst relative error {worst:.2e}); spot value -4/pi^2 within 1e-9 ({spot_ok})",
    )


def test_criterion_7_octahedron_cross_check(octahedron_vertices):
    P = polytope_combinatorics(octahedron_vertices)
    by_triangulation = polytope_transform(P, "triangulation")
    by_interpolation = polytope_transform(P, "interpolation")
    terms_ok = all(
        a.numerator == b.numerator and a.generators == b.generators and a.apex == b.apex
        for a, b in zip(by_triangulation.terms, by_interpolation.terms)
    )

    rng = random.Random(707)
    gens = [g for term in by_interpolation.terms for g in term.generators]
    shift = (Fraction(2, 3), Fraction(-1, 5), Fraction(7, 4))
    moved = polytope_transform(
        polytope_combinatorics([tuple(a + b for a, b in zip(v, shift)) for v in octahedron_vertices])
    )
    eval_ok = covariance_ok = True
    for _ in range(20):
        while True:
            xi = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(3))
            if all(dot(g, xi) != 0 for g in gens):
                break
        a = evaluate_transform(by_triangulation, xi)
        b = evaluate_transform(by_interpolation, xi)
        eval_ok = eval_ok and a == b
        phase = cmath.exp(2j * math.pi * float(dot(shift, xi)))
        lhs = evaluate_transform(moved, xi)
        # relative bound away from the transform's zeros, absolute at them
        covariance_ok = covariance_ok and abs(lhs - phase * b) <= 1e-9 * (1 + abs(b))
    ok = terms_ok and eval_ok and covariance_ok
    report(
        7,
        ok,
        f"octahedron: methods agree term-by-term exactly ({terms_ok}), evaluate "
        f"identically ({eval_ok}), translation covariance within 1e-9 ({covariance_ok})",
    )


OCTAHEDRON_JSON = json.dumps(
    {
        "vertices": [
            ["1", "0", "0"],
            ["-1", "0", "0"],
            ["0", "1", "0"],
            ["0", "-1", "0"],
            ["0", "0", "1"],
            ["0", "0", "-1"],
        ]
    }
)


def _run_cli(*argv) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "conefourier", *argv],
        capture_output=True,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_criterion_8_determinism():
    seeded_commands = [
        ("validate", "--sample", "2", "5", "--seed", "11"),
        ("transform", "--sample", "3", "6", "--seed", "42", "--verbose"),
        ("compare", "--sample", "4", "7", "--seed", "9"),
        ("vervan", "--sample", "2", "6", "--seed", "5", "--random", "5"),
        ("brion-eval", OCTAHEDRON_JSON, "--xi", '["1/3","2/5","3/7"]', "--verbose"),
    ]
    ok = True
    for argv in seeded_commands:
        ok = ok and _run_cli(*argv) == _run_cli(*argv)
    # bench rows are seeded too, but wall-clock columns cannot be byte
    # stable; the generated data must be.
    bench_args = ("bench", "--seed", "3", "--dims", "2,3", "--max-extra", "2", "--csv")
    first = [row.split(",")[:2] for row in _run_cli(*bench_args).decode().splitlines()]
    second = [row.split(",")[:2] for row in _run_cli(*bench_args).decode().splitlines()]
    ok = ok and first == second and len(first) == 7
    report(
        8,
        ok,
        "seeded CLI invocations are byte-identical across runs; bench data "
        "columns are reproducible (timing columns excluded)",
    )
