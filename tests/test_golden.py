"""Seeded CLI output pinned byte for byte across refactors.

Each command's stdout is stored in ``tests/golden/<name>.txt`` and its
exit status in ``golden_commands.py``. Criterion 8 only checks that one
checkout repeats itself; these files hold the output a refactor must keep.

Regenerate the files, after a deliberate change of output, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import sys
from contextlib import redirect_stdout

import pytest

from conefourier.cli import main

from golden_commands import COMMANDS, GOLDEN


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
