"""Every module of the package, demo and test uses each name it imports.

No linter ships with the toolchain, so this parses the sources with
``ast``.  The package's ``__init__.py`` is skipped: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modmhd"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(
    p.relative_to(ROOT).as_posix()
    for folder in ("demos", "tests") for p in (ROOT / folder).glob("*.py")
)


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # ``np.empty`` and ``ops.curl`` reach their module through a Name node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_sees_the_package():
    assert "operators.py" in MODULES and "cli.py" in MODULES
    assert "demos/01_operators.py" in SCRIPTS and "tests/test_imports.py" in SCRIPTS


def test_unused_import_is_reported():
    source = "import os\nfrom .grid import GridSpec, full_vector\nfull_vector(1)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "GridSpec")]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_has_no_unused_imports(script):
    assert _unused_imports((ROOT / script).read_text()) == []
