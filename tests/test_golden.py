"""Seeded CLI output pinned byte for byte across refactors.

Each command's stdout is stored in ``tests/golden/<name>.txt`` and its
exit status here. Criterion 8 only checks that one checkout repeats
itself; these files hold the output a refactor must keep.

Regenerate the files, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conefourier.cli import main

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
)


def run(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.mark.parametrize("name,argv,status", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_golden_output(name, argv, status):
    code, out = run(argv)
    assert code == status
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, status in COMMANDS:
        code, out = run(argv)
        if code != status:
            sys.exit(f"{name}: exit status {code}, expected {status}")
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8")
