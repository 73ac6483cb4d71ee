"""Every source and test file parses under the grammar of the oldest
Python the package supports, so syntax newer than that floor fails here
on any interpreter and not only on a floor-version one."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)  # requires-python in pyproject.toml and the oldest version in the CI matrix


def test_every_file_parses_at_the_floor():
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in (ROOT / "pyproject.toml").read_text()
    files = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
