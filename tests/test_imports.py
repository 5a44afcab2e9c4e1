"""Every module-level import in the package is used (``__init__.py``
re-exports by design and is exempt)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcashrink"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Name bound by each top-level import statement, with its line."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "%s imports but never uses: %s" % (path.name, ", ".join(unused))


def test_every_public_name_resolves():
    import pcashrink

    missing = [name for name in pcashrink.__all__ if not hasattr(pcashrink, name)]
    assert not missing, "pcashrink.__all__ names missing attributes: %s" % ", ".join(missing)
