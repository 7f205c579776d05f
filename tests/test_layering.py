"""Each module imports only the layers below it in ``__init__``'s order."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import sparsim

PACKAGE = Path(sparsim.__file__).parent


def layer_order() -> list:
    """``errors``, then the layers ``__init__``'s docstring lists bottom up."""
    doc = ast.get_docstring(ast.parse((PACKAGE / "__init__.py").read_text()))
    return ["errors"] + re.findall(r"^\* (\w+)\s+--", doc, flags=re.MULTILINE)


def imported_modules(tree: ast.Module) -> set:
    """The package's own modules that ``tree`` imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .a import x
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("sparsim."):
                found.add(node.module.split(".")[1])
            elif node.module == "sparsim":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sparsim."))
    return found


def test_layer_order_lists_every_module():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    order = layer_order()
    assert order[-1] == "cli"
    assert sorted(order) == sorted(modules)


def test_modules_import_only_lower_layers():
    order = layer_order()
    upward = []
    for name in order:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for dep in sorted(imported_modules(tree)):
            if dep not in order or order.index(dep) >= order.index(name):
                upward.append(f"{name} imports {dep}")
    assert upward == []


def test_import_loads_no_executor_module():
    """``import sparsim`` does not load ``concurrent.futures``: the oracle's
    block workers are plain threads, and only ``cli``, which the package
    does not import, uses a process pool."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, sparsim; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
