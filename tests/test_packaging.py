import tomllib
from importlib.metadata import metadata
from pathlib import Path

from packaging.specifiers import SpecifierSet

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_python_floor_meets_the_scipy_floor():
    # an install on a Python that the scipy floor refuses cannot resolve
    declared = SpecifierSet(tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"])
    floors = [s.version for s in declared if s.operator == ">="]
    assert len(floors) == 1, declared
    assert floors[0] in SpecifierSet(metadata("scipy")["Requires-Python"])
