"""The package's public names resolve lazily, each to the object its
submodule defines, and `import regint` loads no submodule that a name
has not asked for."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regint
import regint.problems

PACKAGES = (regint, regint.problems)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_export_is_its_submodule_attribute(package):
    names = [name for name in package.__all__ if name != "__version__"]
    assert len(set(package.__all__)) == len(package.__all__)
    for name in names:
        module = importlib.import_module(f"{package.__name__}.{package._EXPORTS[name]}")
        assert getattr(package, name) is getattr(module, name), name
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name  # noqa: B018


def test_the_export_lists_keep_every_name():
    assert len(regint.__all__) == 78
    assert len(regint.problems.__all__) == 38
    assert set(regint.problems.__all__) < set(regint.__all__)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_star_import_binds_all_of_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= namespace.keys()


def test_import_loads_only_the_problem_table():
    script = "import sys, regint\nprint(sorted(m for m in sys.modules if m.startswith('regint')))"
    src = str(Path(regint.__file__).parents[1])  # the package under test
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src}).stdout
    assert ast.literal_eval(out) == ["regint", "regint.errors", "regint.problems", "regint.symbols"]
