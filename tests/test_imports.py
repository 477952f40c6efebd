"""Every name a module of the package imports is used in that module, and
every module-level private function or class is referenced somewhere in
the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "incilab"

# `__init__` imports names only to re-export them.  No other module keeps an
# import only so that the benchmark's tracer (perfbench/tracing.py) can wrap
# it: every trace target is a name its module uses.
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
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "import math, os.path\nfrom typing import Sequence as Seq, Any\n\nx: Any = os.sep\n"
    assert unused_imports(source) == ["math", "Seq"]


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Module-level `_name` functions and classes that no name, attribute
    or import in any of the sources refers to."""
    trees = [ast.parse(s) for s in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [name for name in defined if name not in referenced]


def test_every_private_definition_is_referenced():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_privates(sources) == []


def test_scan_finds_an_unreferenced_private():
    module_a = (
        "def _dead():\n    pass\n\n"
        "def _imported():\n    pass\n\n"
        "class _Used:\n    def _method(self):\n        pass\n\n"
        "def __dunder__():\n    pass\n\n"
        "class _Orphan:\n    pass\n"
    )
    module_b = "from .a import _imported\nfrom . import a\n\nx = _Used()\ny = a._other\n"
    assert unreferenced_privates([module_a, module_b]) == ["_dead", "_Orphan"]


def imported_modules(source: str) -> set[str]:
    """The last dotted part of every module an import names, with the names
    a `from` import binds: `from .algebra import x`, `from . import algebra`
    and `import incilab.algebra` all give "algebra"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names} | {(node.module or "").split(".")[-1]}
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[-1] for a in node.names}
    return out


def test_pipeline_imports_nothing_from_algebra():
    # pipeline decides every surface on integer forms; the `Fraction`
    # references in algebra serve `incilab verify` and the tests
    assert "algebra" not in imported_modules((SRC / "pipeline.py").read_text())
    for source in ("from .algebra import x", "from . import algebra", "import incilab.algebra"):
        assert "algebra" in imported_modules(source)
