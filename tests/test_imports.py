"""The names the benchmark's job runners and the package itself import
from rankone must all exist: a missing one fails every benchmark job, or
``import rankone`` itself.  The files are read with ``ast``, not run."""

import ast
import importlib
from pathlib import Path

import rankone

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def _from_imports(path: Path, package: str) -> list[tuple[str, str]]:
    """(module, name) for each ``from <module> import <name>`` in the file
    whose module is rankone or one of its submodules, relative imports
    resolved against ``package``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = ".".join([package] + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        if module == "rankone" or module.startswith("rankone."):
            found += [(module, alias.name) for alias in node.names]
    return found


def _unresolved(imports):
    return [(module, name) for module, name in imports
            if not hasattr(importlib.import_module(module), name)]


def test_benchmark_jobs_import_existing_names():
    imports = _from_imports(JOBS, "")
    modules = {module for module, _ in imports}
    assert {"rankone", "rankone.tower", "rankone.words",
            "rankone.registry"} <= modules
    assert _unresolved(imports) == []


def test_package_init_imports_existing_names():
    imports = _from_imports(Path(rankone.__file__), "rankone")
    assert len(imports) > 50
    assert _unresolved(imports) == []
