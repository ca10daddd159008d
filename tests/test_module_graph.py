"""Every ``repro`` module is used by shipped code, not only by tests.

Parses every non-test ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` and collects the ``repro`` modules they import.  A module
no such file imports exists only for its tests: delete it, or wire it
into the program.  The same holds one level down for the crypto core,
the number theory, the FE schemes, the matrix layer, observability and
the RPC layer: every public function and method of ``repro.core``,
``repro.fe``, ``repro.mathutils``, ``repro.matrix``, ``repro.obs`` and
``repro.rpc`` must be named by such a file.  Every keyword-only option
of a public ``repro.rpc`` constructor, and every defaulted parameter of
a public constructor, function or method in the other five packages,
must be set by one.  A dataclass's fields are a record's state, not
options, and are not checked.

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
    "repro.core.policy.KeyReleasePolicy.grants": "wired by ROADMAP item 5",
    "repro.core.policy.KeyReleasePolicy.refusals":
        "wired by ROADMAP item 5",
    "repro.core.serialization.feip_ciphertext_wire_size":
        "the Section IV-B2 formula the wire tests compare against",
    "repro.matrix.parallel.SecureComputePool.worker_pids":
        "ROADMAP item 14's tests find pool workers through it",
}

#: Packages whose public functions and methods must each be named by
#: shipped code.
REFERENCED_PACKAGES = ("repro.core", "repro.fe", "repro.mathutils",
                       "repro.matrix", "repro.obs", "repro.rpc")

#: Options of :data:`OPTION_PACKAGE` and
#: :data:`DEFAULTED_OPTION_PACKAGES` allowed to be set by tests alone,
#: with why.
ALLOWED_TEST_ONLY_OPTIONS = {
    "repro.core.entities.TrustedAuthority(permitted_ops=)":
        "wired by ROADMAP item 5",
    "repro.core.entities.TrustedAuthority(policy=)":
        "wired by ROADMAP item 5",
    **{f"repro.core.entities.TrustedAuthority.{method}(requester=)":
       "wired by ROADMAP item 5"
       for method in ("derive_feip_keys", "derive_feip_keys_batch",
                      "derive_febo_keys", "derive_febo_keys_batch",
                      "derive_febo_key_sets")},
    "repro.fe.feip.Feip(solver_cache=)":
        "handed through: the Figure 3-5 benches set "
        "SecureMatrixScheme(solver_cache=)",
    "repro.fe.febo.Febo(solver_cache=)":
        "handed through: the Figure 3-5 benches set "
        "SecureMatrixScheme(solver_cache=)",
    "repro.mathutils.primes.gen_safe_prime(rng=)":
        "handed through from GroupParams.generate",
    "repro.mathutils.primes.is_probable_prime(rng=)":
        "handed through from GroupParams.generate",
    "repro.mathutils.group.GroupParams.generate(rng=)":
        "tests seed the parameter search",
    "repro.rpc.supervisor.Supervisor(sleep=)":
        "tests substitute a fake sleep",
    "repro.rpc.supervisor.Supervisor(clock=)":
        "tests substitute a fake clock",
    "repro.rpc.supervisor.Supervisor(rng=)":
        "tests seed the restart jitter",
    "repro.rpc.client.RemoteAuthority(rng=)":
        "tests seed the nonces; upload_shard hands its rng through",
    "repro.rpc.client.RemoteAuthority(connect_timeout=)":
        "an RpcEndpoint option handed through; a test shortens it to "
        "fail fast against a closed port",
}

#: Package whose public constructors' keyword-only options must each be
#: set by shipped code.
OPTION_PACKAGE = "repro.rpc"

#: Packages where every defaulted parameter of a public constructor,
#: function or method must be set by shipped code.
DEFAULTED_OPTION_PACKAGES = ("repro.core", "repro.fe", "repro.matrix",
                             "repro.mathutils", "repro.obs")


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


def test_every_process_pool_names_its_start_method():
    """Pool workers fork, whatever start method the process set: every
    ``ProcessPoolExecutor`` in ``src/repro`` passes ``mp_context=``."""
    unnamed = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if callee == "ProcessPoolExecutor" and not any(
                    kw.arg == "mp_context" for kw in node.keywords):
                unnamed.append(f"{_module_name(path)}:{node.lineno}")
    assert not unnamed, f"{unnamed} build a ProcessPoolExecutor " \
        f"without mp_context="


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


def _signature(fn: ast.FunctionDef, method: bool
               ) -> list[tuple[str, int | None, bool]]:
    """``(name, positional index, has_default)`` for each parameter of
    ``fn``, without a method's ``self``/``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaulted = len(positional) - len(args.defaults)
    out = [(arg.arg, i, i >= defaulted) for i, arg in enumerate(positional)]
    out += [(arg.arg, None, default is not None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        out = [(name, None if i is None else i - 1, dflt)
               for name, i, dflt in out[1:]]
    return out


Option = tuple[str, str, "int | None"]


def _constructor_options(package: str) -> dict[str, Option]:
    """``"module.Class(option=)"`` -> ``(Class, option, index)`` for
    every keyword-only parameter of a public top-level class's
    ``__init__`` in ``package``."""
    out = {}
    for path in sorted(SRC.joinpath(*package.split(".")).glob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    out.update(
                        (f"{module}.{node.name}({arg.arg}=)",
                         (node.name, arg.arg, None))
                        for arg in item.args.kwonlyargs)
    return out


def _defaulted_options(package: str) -> dict[str, Option]:
    """``"module.Name(option=)"`` -> ``(callee, option, index)`` for
    every defaulted parameter of a public constructor, public top-level
    function and public method of a public top-level class in
    ``package``; ``index`` is where a positional argument sets it,
    ``None`` for keyword-only."""
    out = {}

    def add(qualified, callee, signature):
        out.update((f"{qualified}({name}=)", (callee, name, index))
                   for name, index, has_default in signature if has_default)

    for path in sorted(SRC.joinpath(*package.split(".")).glob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) \
                    or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(f"{module}.{node.name}", node.name,
                    _signature(node, method=False))
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    add(f"{module}.{node.name}", node.name,
                        _signature(item, method=True))
                elif not item.name.startswith("_"):
                    add(f"{module}.{node.name}.{item.name}", item.name,
                        _signature(item, method=True))
    return out


def _arguments_set() -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, index)`` for every argument
    the shipped files pass, where the callee is the called name or
    attribute and ``index`` a positional argument's place.

    A same-name pass-through (``policy=policy``) of the enclosing
    function's own parameter sets nothing: it only hands on what its
    own caller chose.  The same name bound locally
    (``pool = get_compute_pool(1)`` then ``pool=pool``) sets it, and so
    does a nested function's parameter, which only the function around
    it can set."""
    out = set()

    def visit(node: ast.AST, params: frozenset[str] | None) -> None:
        if params is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = frozenset(a.arg for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a]))
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            out.update((callee, i) for i, arg in enumerate(node.args)
                       if not isinstance(arg, ast.Starred))
            out.update(
                (callee, kw.arg) for kw in node.keywords
                if kw.arg is not None and not (
                    isinstance(kw.value, ast.Name)
                    and kw.value.id == kw.arg and kw.arg in (params or ())))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for path in _shipped_files():
        visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


def test_every_option_is_set_by_shipped_code():
    """An option that only tests set is code no deployment runs: make
    it a constant, or delete the behaviour behind it."""
    options = _constructor_options(OPTION_PACKAGE)
    for package in DEFAULTED_OPTION_PACKAGES:
        options.update(_defaulted_options(package))
    set_by_shipped = _arguments_set()
    unset = {q for q, (callee, name, index) in options.items()
             if (callee, name) not in set_by_shipped
             and (index is None or (callee, index) not in set_by_shipped)}
    test_only = sorted(unset - set(ALLOWED_TEST_ONLY_OPTIONS))
    assert not test_only, f"only tests set {test_only}"
    now_set = sorted(set(ALLOWED_TEST_ONLY_OPTIONS) - unset)
    assert not now_set, f"{now_set} are set by shipped code now; " \
        f"drop them from the list"
