"""No source or test file imports a name it never reads, and no private
helper of the package is kept for the tests alone.

A stdlib-only stand-in for flake8's F401: a name bound by an import
counts as read if it occurs anywhere in the module as a loaded name,
including inside a quoted annotation.  An import kept on purpose says
so with `# noqa: F401` on its line.  A module-level private name of
`src/` must be read somewhere in `src/`, as a loaded name or an
attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bound(alias: ast.alias, relative: bool) -> str:
    if alias.asname:
        return alias.asname
    return alias.name if relative else alias.name.split(".")[0]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            from_import = isinstance(node, ast.ImportFrom)
            imported += [(node.lineno, _bound(alias, from_import)) for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):  # quoted
                    read |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def unused_privates(sources: dict[str, str]) -> list[str]:
    """`file:line: name` of each module-level private name (a function,
    class or assignment named `_x`, dunders excepted) that none of
    `sources` (file name -> source) reads."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            defined += [(name, node.lineno, t) for t in targets if t.startswith("_") and not t.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{line}: {private}" for name, line, private in defined if private not in read]


def test_no_file_imports_a_name_it_never_reads():
    files = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 20
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_scan_sees_each_kind_of_import():
    source = (
        "import os\nimport os.path\nimport json as j\nfrom a import b, c as d\n"
        "from . import e\nfrom f import g  # noqa: F401 - kept\nx: 'list[b]'\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "os"), (3, "j"), (4, "d"), (5, "e")]


def test_src_reads_every_private_name_it_defines():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert len(sources) > 10
    assert unused_privates(sources) == []


def test_the_private_scan_sees_each_kind_of_definition():
    sources = {
        "a.py": "def _f(): pass\nclass _C: pass\n_x = 1\n_y: int = 2\n__all__ = []\ndef _g(): pass\n_z = _g\n"
                "for _i in (): pass\n",
        "b.py": "import a\nprint(a._x)\n",
    }
    assert unused_privates(sources) == ["a.py:1: _f", "a.py:2: _C", "a.py:4: _y", "a.py:7: _z"]
