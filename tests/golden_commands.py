"""The golden commands, their inputs and exit statuses, apart from pytest:
``test_golden.py`` runs them in one process, and CI runs each in a fresh
``python -m conefourier`` process, on an interpreter that may have no
pytest."""

import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

OCTAHEDRON = json.dumps(
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
NON_GENERIC_CONE = json.dumps(
    {
        "apex": ["0", "0", "0"],
        "generators": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],
    }
)
# a non-ASCII string in the error message, which the output escapes
NON_ASCII_APEX = '{"apex": ["1/2", "\u00e9"], "generators": [["1", "0"], ["0", "1"]]}'
# an error whose context holds a nested list
DUPLICATE_RAY_CONE = '{"apex": ["0", "0"], "generators": [["1", "0"], ["2", "0"], ["0", "1"]]}'

# (file name, argv, exit status)
COMMANDS = (
    ("transform_3_6_interpolation", ["transform", "--sample", "3", "6", "--seed", "42", "--verbose", "--method", "interpolation"], 0),
    ("transform_3_6_triangulation", ["transform", "--sample", "3", "6", "--seed", "42", "--verbose", "--method", "triangulation"], 0),
    ("transform_5_8_triangulation", ["transform", "--sample", "5", "8", "--seed", "8", "--method", "triangulation", "--verbose"], 0),
    ("transform_4_7_interpolation", ["transform", "--sample", "4", "7", "--seed", "9", "--verbose", "--method", "interpolation"], 0),
    ("compare_4_7", ["compare", "--sample", "4", "7", "--seed", "9"], 0),
    ("vervan_3_6_random", ["vervan", "--sample", "3", "6", "--seed", "2", "--random", "20"], 0),
    ("validate_2_5", ["validate", "--sample", "2", "5", "--seed", "11"], 0),
    ("brion_eval_octahedron", ["brion-eval", OCTAHEDRON, "--xi", '["1/3","2/5","3/7"]', "--verbose"], 0),
    ("transform_non_generic", ["transform", NON_GENERIC_CONE, "--method", "triangulation"], 1),
    ("validate_non_ascii_error", ["validate", NON_ASCII_APEX], 2),
    ("transform_duplicate_ray", ["transform", DUPLICATE_RAY_CONE], 1),
)
