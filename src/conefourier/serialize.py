"""JSON wire formats.

Rationals travel as strings like "3/4" (or "5" when the denominator is 1)
so exactness survives round trips; floating point input is rejected. All
indices in wire data are 1-based.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .cones import Cone, ValidationReport
from .errors import MalformedInputError
from .geometry import Vector, monomial_basis
from .interpolation import InterpolationSystem, SolveDetails
from .polynomials import HomogeneousPolynomial
from .vervan import VerVanRecord

# The exponent of a rational string in exponent notation, which Fraction
# accepts: "1e20000" is short, but its value has 20001 digits.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")

# JSON's names of None, True, False and of float.__repr__'s non-finite floats
_JSON_NAMES = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise MalformedInputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise MalformedInputError(
            f"floating-point value {value!r} is not exact; write rationals as strings like \"3/4\""
        )
    if isinstance(value, str):
        try:
            if value.isascii() and (value[1:] if value[:1] == "-" else value).isdigit():  # an integer
                return Fraction(int(value))
            # the exponent is held to the digit limit an integer literal meets
            exponent = _EXPONENT.search(value)
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent[1])) > limit:
                raise ValueError(f"exponent {exponent[1]} exceeds the limit ({limit} digits)")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise MalformedInputError(f"cannot parse rational {value!r}: {err}") from None
    raise MalformedInputError(f"expected a rational, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """The exact "p/q" (or "p") at any size. ``str`` refuses an int past
    Python's int-to-string digit limit (4300 digits by default); ``Decimal``
    converts an int exactly and prints it with no limit."""
    try:
        return str(value)
    except ValueError:
        numerator = str(Decimal(value.numerator))
        return numerator if value.denominator == 1 else numerator + "/" + str(Decimal(value.denominator))


def format_json(value) -> str:
    """``json.dumps(value)`` at an indent of 2, byte for byte, from json's C
    string escaper (``json`` indents in pure Python before 3.13). Keys must
    be strings, and no cycle is checked: the CLI prints trees."""
    return _json(value, "\n")


def _json(value, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_NAMES[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NAMES.get(text, text)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, dict):
        items = [encode_basestring_ascii(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def parse_vector(values) -> Vector:
    if not isinstance(values, list):
        raise MalformedInputError(f"expected an array of rationals, got {type(values).__name__}")
    return tuple(parse_rational(v) for v in values)


def format_vector(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(c) for c in v]


def cone_from_json(data) -> Cone:
    """Read {"apex": [rat], "generators": [[rat]]}."""
    if not isinstance(data, dict):
        raise MalformedInputError("cone input must be a JSON object")
    if "apex" not in data or "generators" not in data:
        raise MalformedInputError('cone input needs "apex" and "generators" keys')
    gens = data["generators"]
    if not isinstance(gens, list) or not gens:
        raise MalformedInputError('"generators" must be a non-empty array of vectors')
    return Cone(parse_vector(data["apex"]), tuple(parse_vector(g) for g in gens))


def cone_to_json(cone: Cone) -> dict:
    return {
        "apex": format_vector(cone.apex),
        "generators": [format_vector(g) for g in cone.generators],
    }


def vertices_from_json(data) -> tuple[Vector, ...]:
    """Read {"vertices": [[rat]]}."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise MalformedInputError('polytope input needs a "vertices" key')
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise MalformedInputError('"vertices" must be a non-empty array of points')
    return tuple(parse_vector(v) for v in verts)


def report_to_json(report: ValidationReport) -> dict:
    return {
        "pointed": report.pointed,
        "witness": format_vector(report.witness),
        "general_position": report.general_position,
        "redundant_generators": [i + 1 for i in report.redundant_generators],
    }


def polynomial_to_json(poly: HomogeneousPolynomial) -> dict:
    return {
        "dimension": poly.dimension,
        "degree": poly.degree,
        "terms": [
            {"exponents": list(exponents), "coefficient": format_rational(coeff)}
            for exponents, coeff in poly.terms()
        ],
    }


def family_from_json(data) -> tuple[tuple[int, ...], ...]:
    """Read a family as an array of 1-based index arrays."""
    if not isinstance(data, list):
        raise MalformedInputError("family must be an array of index arrays")
    out = []
    for entry in data:
        if not isinstance(entry, list) or not all(type(i) is int and i >= 1 for i in entry):  # bool is no index
            raise MalformedInputError(f"bad diagonal {entry!r}; expected 1-based indices")
        out.append(tuple(i - 1 for i in entry))
    return tuple(out)


def system_to_json(system: InterpolationSystem, details: SolveDetails) -> dict:
    basis = monomial_basis(system.dimension, system.degree)
    out = {
        "dimension": system.dimension,
        "degree": system.degree,
        "unknowns": system.unknowns,
        "rows": [
            {
                "diagonal": [i + 1 for i in row.diagonal],
                "coefficients": format_vector(row.coefficients),
                "rhs": format_rational(row.rhs),
            }
            for row in system.rows
        ],
        "skipped": [[i + 1 for i in d] for d in system.skipped],
    }
    if system.scale != 1:  # the rows are the integer generators'; see Cone.scale
        out["scale"] = format_rational(system.scale)
    out["pivots"] = [
        {"diagonal": [i + 1 for i in diag], "monomial": list(basis[col])}
        for diag, col in details.pivots
    ]
    out["rank"] = details.rank
    return out


def vervan_record_to_json(record: VerVanRecord) -> dict:
    return {
        "family": [[i + 1 for i in d] for d in record.family],
        "fills": record.fills,
        "minor": format_rational(record.minor),
        "expected_abs": format_rational(record.expected_abs),
        "sign": record.sign,
        "witness": [i + 1 for i in record.witness],
        "multiplicities": [
            {
                "simplex": [i + 1 for i in simplex],
                "multiplicity": mult,
                "det": format_rational(det),
            }
            for simplex, mult, det in record.multiplicities
        ],
        "pass": True,
    }
