"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "incilab"

# `__init__` imports names only to re-export them.  `partition` imports
# `line_in_zero_set` without calling it because the benchmark's tracer
# (perfbench/tracing.py) wraps it under the name `partition.line_in_zero_set`.
EXEMPT = {("partition", "line_in_zero_set")}
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    unused = [n for n in unused_imports(path.read_text()) if (path.stem, n) not in EXEMPT]
    assert unused == []


def test_scan_finds_an_unused_import():
    source = "import math, os.path\nfrom typing import Sequence as Seq, Any\n\nx: Any = os.sep\n"
    assert unused_imports(source) == ["math", "Seq"]
