"""Every ``repro`` module is used by shipped code, not only by tests.

Parses every non-test ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` and collects the ``repro`` modules they import.  A module
no such file imports exists only for its tests: delete it, or wire it
into the program.  The same holds one level down for the number theory
and the FE schemes: every public function and method of
``repro.mathutils`` and ``repro.fe`` must be named by such a file.

A package's ``__init__`` re-exporting a module of its own does not
count as an importer; a file outside the package that imports the
re-exported name does.  ``from pkg import name`` is followed through
the ``__init__`` files to the module that defines ``name``, and
``import pkg`` uses every module ``pkg/__init__.py`` imports (a rule
registry, say).
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
    # the executable IND-CPA game behind Theorem 1 (FEBO is IND-CPA
    # under DDH); its experiments are tests/test_indcpa.py and the
    # engine-backed games in tests/test_engine.py
    "repro.security.indcpa": "the runnable IND-CPA game of Theorem 1",
}


#: Public functions and methods of :data:`REFERENCED_PACKAGES` allowed
#: to have no reference outside the tests, with why.
ALLOWED_UNREFERENCED = {
    "repro.mathutils.group.GroupParams.generate":
        "reproduces the predefined groups' parameter search",
    "repro.mathutils.group.GroupParams.validate":
        "checks every predefined group in tests/test_group.py",
}

#: Packages whose public functions and methods must each be named by
#: shipped code.
REFERENCED_PACKAGES = ("repro.mathutils", "repro.fe")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, package: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every name ``path`` imports.

    ``import a`` gives ``(a, None)``, ``from a import b`` gives
    ``(a, b)`` (``b`` may be a submodule); relative imports resolve
    against ``package``.
    """
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            out.extend((base, alias.name) for alias in node.names)
    return out


def _shipped_files() -> list[Path]:
    files = []
    for top in ("src", "benchmarks", "examples"):
        files.extend(p for p in sorted((REPO_ROOT / top).rglob("*.py"))
                     if not p.name.startswith("test_"))
    return files


def _package_exports() -> dict[str, dict[str, str]]:
    """package -> {name its ``__init__`` imports: module it comes from}."""
    exports = {}
    for init in (SRC / "repro").rglob("__init__.py"):
        package = _module_name(init)
        exports[package] = {name: base for base, name in
                            _imports(init, package) if name is not None}
    return exports


def _modules_used(base: str, name: str | None,
                  exports: dict[str, dict[str, str]]) -> set[str]:
    """The modules one imported ``(module, name)`` pair uses."""
    if name is None:
        # importing a package runs its __init__, and with it every
        # import there
        return {base}.union(*(_modules_used(base, exported, exports)
                              for exported in exports.get(base, {})))
    used = {base, f"{base}.{name}"}
    while exports.get(base, {}).get(name, base) not in used:
        # a re-export: follow it to the module that defines the name
        base = exports[base][name]
        used |= {base, f"{base}.{name}"}
    return used


def test_every_repro_module_has_a_non_test_importer():
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")
               if p.stem not in ("__init__", "__main__")}
    exports = _package_exports()
    importers: dict[str, set[Path]] = {m: set() for m in modules}
    for path in _shipped_files():
        if path.is_relative_to(SRC):
            name = _module_name(path)
            package = name if path.stem == "__init__" \
                else name.rpartition(".")[0]
        else:
            name = package = ""
        for base, imported in _imports(path, package):
            for module in _modules_used(base, imported, exports) & modules:
                own = path.stem == "__init__" \
                    and module.startswith(name + ".")
                if module != name and not own:
                    importers[module].add(path)
    unimported = {m for m, paths in importers.items() if not paths}
    test_only = sorted(unimported - set(ALLOWED_UNIMPORTED))
    assert not test_only, f"only tests import {test_only}"
    now_imported = sorted(set(ALLOWED_UNIMPORTED) - unimported)
    assert not now_imported, (
        f"{now_imported} have importers now; drop them from the list")


def test_no_module_imports_asyncio():
    """Services, the chaos proxy and clients all run on threads and
    blocking sockets: one kind of server, one frame reader."""
    importers = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        package = name if path.stem == "__init__" else name.rpartition(".")[0]
        if any(base.partition(".")[0] == "asyncio"
               for base, _ in _imports(path, package)):
            importers.append(name)
    assert not importers, f"{importers} import asyncio"


def _public_callables(path: Path) -> dict[str, str]:
    """qualified name -> bare name of every public top-level function
    and public method of a public top-level class in ``path``."""
    module = _module_name(path)
    out = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out.update((f"{module}.{node.name}.{item.name}", item.name)
                       for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) \
                and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = node.name
    return out


def _referenced_names() -> set[str]:
    """Every identifier and attribute name the shipped files use.

    Only code counts: a name in a string, a docstring or an import list
    does not, so a package re-exporting a function is no use of it."""
    names = set()
    for path in _shipped_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_non_test_reference():
    callables = {}
    for package in REFERENCED_PACKAGES:
        root = SRC.joinpath(*package.split("."))
        for path in sorted(root.glob("*.py")):
            callables.update(_public_callables(path))
    referenced = _referenced_names()
    unreferenced = {q for q, name in callables.items()
                    if name not in referenced}
    test_only = sorted(unreferenced - set(ALLOWED_UNREFERENCED))
    assert not test_only, f"only tests call {test_only}"
    now_referenced = sorted(set(ALLOWED_UNREFERENCED) - unreferenced)
    assert not now_referenced, (
        f"{now_referenced} have references now; drop them from the list")
