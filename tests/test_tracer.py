"""The benchmark tracer wraps library functions by name, so every name
it lists must still exist; a deleted one would otherwise show only when
a traced benchmark run fails.  An import kept only for the tracer
(`# noqa: F401`) must name a boundary the tracer still wraps, so the
import goes once its boundary does."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def kept_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import marked `# noqa: F401`."""
    lines = source.splitlines()
    return [(node.lineno, alias.asname or alias.name.split(".")[0])
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names]


def test_every_traced_boundary_resolves():
    tracer = load_tracer()
    missing = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracer.BOUNDARIES
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert tracer.BOUNDARIES
    assert missing == []


def test_every_kept_import_is_a_traced_boundary():
    wrapped = {(module, attribute) for module, attribute, *_ in load_tracer().BOUNDARIES}
    untraced = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__")
        untraced += [f"{path.relative_to(ROOT)}:{line}: {name}"
                     for line, name in kept_imports(path.read_text(encoding="utf-8"))
                     if (module, name) not in wrapped]
    assert untraced == []


def test_the_kept_import_scan_reads_each_kind_of_import():
    source = (
        "import os\nimport os.path  # noqa: F401\nfrom a import (\n    b,  # noqa: F401\n    c as d,\n)\n"
        "from e import f  # noqa: F401 - kept\n"
    )
    assert kept_imports(source) == [(2, "os"), (3, "b"), (3, "d"), (7, "f")]
