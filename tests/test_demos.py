"""Each demo runs in-process and prints exactly its recorded output."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_prints_recorded_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == (EXPECTED / f"{name}.out").read_text()
