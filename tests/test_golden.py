"""Every recorded output under tests/golden/ is reproduced byte for byte."""

import difflib

import pytest

from goldens import GOLDEN_DIR, OUTPUTS


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_golden(name):
    want, got = (GOLDEN_DIR / name).read_bytes().decode(), OUTPUTS[name]()
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile=f"tests/golden/{name}", tofile="this run"))
    assert got == want, f"output differs from tests/golden/{name}:\n{diff}"
