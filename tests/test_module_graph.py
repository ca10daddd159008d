"""Every ``repro`` module is used by shipped code, not only by tests.

Parses every non-test ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` and collects the ``repro`` modules they import (a package
``__init__`` re-export counts).  A module no such file imports exists
only for its tests: delete it, or wire it into the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Modules allowed to have no importer outside the tests, with why.
ALLOWED_UNIMPORTED = {
    # the key-release policy; ROADMAP item 5 wires it into the authority
    "repro.core.policy": "wired by ROADMAP item 5",
    # finite-difference gradient checker shared by four nn test files
    "repro.nn.gradcheck": "test helper shared by the nn tests",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path: Path, package: str) -> set[str]:
    """Every module ``path`` imports.

    ``from a import b`` names both ``a`` and ``a.b``, since ``b`` may be
    a submodule; relative imports resolve against ``package``.
    """
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def _shipped_files() -> list[Path]:
    files = []
    for top in ("src", "benchmarks", "examples"):
        files.extend(p for p in sorted((REPO_ROOT / top).rglob("*.py"))
                     if not p.name.startswith("test_"))
    return files


def test_every_repro_module_has_a_non_test_importer():
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")
               if p.stem not in ("__init__", "__main__")}
    importers: dict[str, set[Path]] = {m: set() for m in modules}
    for path in _shipped_files():
        if path.is_relative_to(SRC):
            name = _module_name(path)
            package = name if path.stem == "__init__" \
                else name.rpartition(".")[0]
        else:
            name = package = ""
        for module in _imported_modules(path, package) & modules:
            if module != name:
                importers[module].add(path)
    unimported = {m for m, paths in importers.items() if not paths}
    test_only = sorted(unimported - set(ALLOWED_UNIMPORTED))
    assert not test_only, f"only tests import {test_only}"
    now_imported = sorted(set(ALLOWED_UNIMPORTED) - unimported)
    assert not now_imported, (
        f"{now_imported} have importers now; drop them from the list")
