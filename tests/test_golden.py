"""The CLI's outputs on the shipped fixtures, compared byte for byte with golden files.

``scripts/make_fixtures.py`` writes ``tests/data/fixture20/golden/``; a change
that alters any report, trace or match byte shows up here.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
_spec = importlib.util.spec_from_file_location("make_fixtures", _SCRIPT)
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)

GOLDEN = make_fixtures.GOLDEN_DIR


@pytest.fixture(scope="module")
def outputs():
    return make_fixtures.golden_outputs()


def test_golden_files_are_the_outputs(outputs):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(outputs)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_output_is_byte_identical_to_golden(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_bytes()
