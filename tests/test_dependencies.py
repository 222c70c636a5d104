"""The dependency rule: numpy is the package's only runtime dependency.

Every ``import`` in ``src/platoon_stab`` is read with ``ast``, whether at
module level or inside a function, and each must name a standard-library
module, numpy, or a module of the package itself through a relative
import.  So scipy, or any other third-party package, cannot become a
runtime dependency unnoticed.

Each module is also parsed with the grammar of the oldest Python that
``pyproject.toml`` declares.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "platoon_stab"
ALLOWED = {"numpy"}


def _imports(path):
    """``(line, top-level module)`` of each absolute import in ``path``,
    and ``(line, None)`` for a relative one."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_stdlib_numpy_or_the_package(path):
    foreign = [f"{path.name}:{line}: {module}" for line, module in _imports(path)
               if module is not None and module not in sys.stdlib_module_names
               and module not in ALLOWED]
    assert foreign == []


def test_the_package_is_read():
    assert {path.name for path in SRC.glob("*.py")} >= {"__init__.py", "model.py", "monitor.py"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_parses_as_the_oldest_declared_python(path):
    """pyproject.toml declares ``requires-python = ">=3.10"``: every module
    must parse with Python 3.10's grammar, so 3.11 syntax such as
    ``except*`` fails here.  This covers syntax only, not the standard
    library or numpy's API, which CI checks on one newer Python."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
