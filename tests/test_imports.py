"""No module of the package, the tests or the root conftest imports a name it
never uses. The scan skips ``__future__`` imports and the package's
``__init__.py``, whose imports are its re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, bound name) of every import in ``source`` whose name the
    module never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        unused += [(node.lineno, name) for name in bound if name not in used]
    return sorted(unused)


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from json import dumps as d, loads\n"
        "print(sys.argv, d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "loads")]


def test_no_unused_imports():
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "tests").rglob("*.py")),
        ROOT / "conftest.py",
    ]
    files = [p for p in files if p.name != "__init__.py"]
    assert len(files) > 20
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
