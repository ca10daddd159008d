"""Every ``repro`` module is used by shipped code, not only by tests.

Parses every non-test ``.py`` file under ``src/``, ``benchmarks/`` and
``examples/`` and collects the ``repro`` modules they import.  A module
no such file imports exists only for its tests: delete it, or wire it
into the program.  The same holds one level down: every public
function and method of ``repro.core``, ``repro.data``, ``repro.fe``,
``repro.mathutils``, ``repro.matrix``, ``repro.nn``, ``repro.obs``,
``repro.rpc``, ``repro.security`` and ``repro.utils`` must be named by
such a file.  One option rule covers the crypto, RPC and model code:
every defaulted parameter of a public constructor, function or method
in ``repro.core``, ``repro.fe``, ``repro.mathutils``, ``repro.matrix``,
``repro.obs`` and ``repro.rpc`` must be set by one.  A public class's
members include the ``__init__`` and public methods it inherits from a
private base; a parameter of one function is set by a call through any
class that shares it, and a call through a name that shipped code binds
to a class (``trainer_cls = CryptoNNTrainer``) is a call of that class.  A
dataclass's fields are a record's state, not options, and are not
checked; nor are the plaintext model library's hyperparameters in
``repro.nn`` and ``repro.data``.

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
    **{f"repro.nn.gradcheck.{checker}": "test helper shared by the nn tests"
       for checker in ("check_layer_input_grad", "check_layer_param_grads",
                       "check_loss_grad")},
    "repro.nn.lenet.build_lenet5":
        "the paper's LeNet-5, trained by tests/test_lenet5_secure.py "
        "(ROADMAP item 2)",
    "repro.security.indcpa.run_indcpa_game":
        "the runnable IND-CPA game of Theorem 1",
}

#: Packages whose public functions and methods must each be named by
#: shipped code.
REFERENCED_PACKAGES = ("repro.core", "repro.data", "repro.fe",
                       "repro.mathutils", "repro.matrix", "repro.nn",
                       "repro.obs", "repro.rpc", "repro.security",
                       "repro.utils")

#: Options of :data:`DEFAULTED_OPTION_PACKAGES` allowed to be set by
#: tests alone, with why.
ALLOWED_TEST_ONLY_OPTIONS = {
    "repro.core.entities.TrustedAuthority(permitted_ops=)":
        "wired by ROADMAP item 5",
    "repro.core.entities.TrustedAuthority(policy=)":
        "wired by ROADMAP item 5",
    **{f"repro.{authority}.{method}(requester=)": "wired by ROADMAP item 5"
       for authority in ("core.entities.TrustedAuthority",
                         "rpc.client.RemoteAuthority")
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
    "repro.rpc.retry.RetryPolicy.attempts(clock=)":
        "tests substitute a fake clock",
    "repro.rpc.retry.RetryPolicy.attempt_timeout_for(clock=)":
        "tests substitute a fake clock",
    **{f"repro.core.{module}.{trainer}.fit({option}=)":
       "handed through by run_training, which serve-train sets"
       for module, trainer in (("cryptonn", "CryptoNNTrainer"),
                               ("cryptocnn", "CryptoCNNTrainer"))
       for option in ("checkpoint_trigger", "on_checkpoint")},
}

#: Packages where every defaulted parameter of a public constructor,
#: function or method must be set by shipped code.
DEFAULTED_OPTION_PACKAGES = ("repro.core", "repro.fe", "repro.matrix",
                             "repro.mathutils", "repro.obs", "repro.rpc")


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


def _callee(func: ast.expr) -> str | None:
    """The name a call or a base class goes by: ``f``, ``obj.f`` -> ``f``."""
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def _definitions(package: str
                 ) -> list[tuple[str, str, ast.FunctionDef, bool]]:
    """``(qualified name, callee, function, is_method)`` for every public
    top-level function in ``package``, and every ``__init__`` and public
    method of a public top-level class there.

    A class's members include those it inherits from a private base in
    the same package: ``CryptoNNTrainer`` has ``_SecureTrainerBase``'s
    ``__init__``, ``fit`` and ``evaluate``.  The callee is the name a
    call uses: the class's for an ``__init__``, else the function's."""
    trees = {_module_name(path): ast.parse(path.read_text(),
                                           filename=str(path))
             for path in sorted(SRC.joinpath(*package.split(".")).glob("*.py"))}
    private = {node.name: node for tree in trees.values()
               for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name.startswith("_")}

    def members(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
        out = {}
        for base in cls.bases:
            if _callee(base) in private:
                out.update(members(private[_callee(base)]))
        out.update((item.name, item) for item in cls.body
                   if isinstance(item, ast.FunctionDef))
        return out

    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                out.append((f"{module}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                for name, fn in members(node).items():
                    if name == "__init__":
                        out.append((f"{module}.{node.name}", node.name, fn,
                                    True))
                    elif not name.startswith("_"):
                        out.append((f"{module}.{node.name}.{name}", name, fn,
                                    True))
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
    callables = {qualified: callee
                 for package in REFERENCED_PACKAGES
                 for qualified, callee, fn, _ in _definitions(package)
                 if fn.name != "__init__"}
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


Option = tuple[frozenset[str], str, "int | None"]


def _defaulted_options(package: str) -> dict[str, Option]:
    """``"module.Name(option=)"`` -> ``(callees, option, index)`` for
    every defaulted parameter of :func:`_definitions`' functions in
    ``package``.  ``callees`` are all the names that reach the function
    (each public subclass sharing a base's ``__init__``), and ``index``
    is where a positional argument sets the option, ``None`` for
    keyword-only."""
    definitions = _definitions(package)
    callees: dict[ast.FunctionDef, set[str]] = {}
    for _, callee, fn, _ in definitions:
        callees.setdefault(fn, set()).add(callee)
    return {f"{qualified}({name}=)": (frozenset(callees[fn]), name, index)
            for qualified, _, fn, method in definitions
            for name, index, has_default in _signature(fn, method)
            if has_default}


def _class_aliases(trees: list[ast.Module]) -> dict[str, set[str]]:
    """name -> the classes a shipped assignment binds to it.

    ``trainer_cls = CryptoCNNTrainer if cnn else CryptoNNTrainer`` and a
    class body's ``secure_input_class = SecureLinearInput`` make a call
    of ``trainer_cls(...)`` or ``self.secure_input_class(...)`` a call of
    the classes they name."""
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def named(value: ast.expr) -> set[str]:
        if isinstance(value, ast.IfExp):
            return named(value.body) | named(value.orelse)
        return {value.id} & classes if isinstance(value, ast.Name) else set()

    aliases: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and named(node.value):
                for target in node.targets:
                    aliases.setdefault(_callee(target), set()).update(
                        named(node.value))
    return aliases


def _arguments_set(trees: list[ast.Module] | None = None
                   ) -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, index)`` for every argument
    the shipped files (or ``trees``) pass, where the callee is the called name or
    attribute, or a class :func:`_class_aliases` binds to it, and
    ``index`` a positional argument's place.

    A same-name pass-through (``policy=policy``) of the enclosing
    function's own parameter sets nothing: it only hands on what its
    own caller chose.  The same name bound locally
    (``pool = get_compute_pool(1)`` then ``pool=pool``) sets it, and so
    does a nested function's parameter, which only the function around
    it can set."""
    if trees is None:
        trees = [ast.parse(path.read_text(), filename=str(path))
                 for path in _shipped_files()]
    aliases = _class_aliases(trees)
    out = set()

    def visit(node: ast.AST, params: frozenset[str] | None) -> None:
        if params is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = frozenset(a.arg for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a]))
        elif isinstance(node, ast.Call):
            name = _callee(node.func)
            for callee in {name} | aliases.get(name, set()):
                out.update((callee, i) for i, arg in enumerate(node.args)
                           if not isinstance(arg, ast.Starred))
                out.update(
                    (callee, kw.arg) for kw in node.keywords
                    if kw.arg is not None and not (
                        isinstance(kw.value, ast.Name)
                        and kw.value.id == kw.arg
                        and kw.arg in (params or ())))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    for tree in trees:
        visit(tree, None)
    return out


def test_every_option_is_set_by_shipped_code():
    """An option that only tests set is code no deployment runs: make
    it a constant, or delete the behaviour behind it."""
    options = {}
    for package in DEFAULTED_OPTION_PACKAGES:
        options.update(_defaulted_options(package))
    set_by_shipped = _arguments_set()
    unset = {q for q, (callees, name, index) in options.items()
             if not any((callee, name) in set_by_shipped
                        or (callee, index) in set_by_shipped
                        for callee in callees)}
    test_only = sorted(unset - set(ALLOWED_TEST_ONLY_OPTIONS))
    assert not test_only, f"only tests set {test_only}"
    now_set = sorted(set(ALLOWED_TEST_ONLY_OPTIONS) - unset)
    assert not now_set, f"{now_set} are set by shipped code now; " \
        f"drop them from the list"


# The guards' own rules, checked on small sources: a guard that reads
# nothing passes on every tree.

def _parse(source: str) -> ast.Module:
    return ast.parse(source.strip() + "\n")


def test_signature_drops_self_and_counts_positions_from_zero():
    cls = _parse("""
class A:
    def f(self, x, y=1, *, z=2, w):
        pass
""").body[0]
    assert _signature(cls.body[0], method=True) == [
        ("x", 0, False), ("y", 1, True), ("z", None, True),
        ("w", None, False)]


def test_signature_of_a_staticmethod_keeps_its_first_parameter():
    cls = _parse("""
class A:
    @staticmethod
    def f(x, y=1):
        pass
""").body[0]
    assert _signature(cls.body[0], method=True) == [
        ("x", 0, False), ("y", 1, True)]


def test_class_aliases_follow_both_branches_of_a_conditional():
    tree = _parse("""
class A: pass
class B: pass
cls = A if flag else B
other = make()
""")
    assert _class_aliases([tree]) == {"cls": {"A", "B"}}


def test_call_through_a_class_alias_sets_the_class_option():
    tree = _parse("""
class Layer: pass
class Model:
    layer_class = Layer
    def build(self):
        return self.layer_class(3, pool=None)
""")
    assert {("Layer", 0), ("Layer", "pool")} <= _arguments_set([tree])


def test_pass_through_of_own_parameter_sets_nothing():
    tree = _parse("""
def outer(policy=None):
    return inner(policy=policy, retries=3)
""")
    arguments = _arguments_set([tree])
    assert ("inner", "retries") in arguments
    assert ("inner", "policy") not in arguments


def test_same_name_bound_locally_sets_the_option():
    tree = _parse("""
def outer():
    pool = make_pool()
    return inner(pool=pool)
""")
    assert ("inner", "pool") in _arguments_set([tree])


def test_public_subclasses_share_an_inherited_init():
    """Both secure trainers reach ``_SecureTrainerBase``'s ``__init__``,
    ``fit`` and ``evaluate``: an option either trainer's caller sets is
    set for both."""
    names = {qualified for qualified, *_ in _definitions("repro.core")}
    for trainer in ("cryptonn.CryptoNNTrainer", "cryptocnn.CryptoCNNTrainer"):
        assert {f"repro.core.{trainer}.fit",
                f"repro.core.{trainer}.evaluate"} <= names
    callees, name, _ = _defaulted_options("repro.core")[
        "repro.core.cryptonn.CryptoNNTrainer(pool=)"]
    assert name == "pool"
    assert callees == {"CryptoNNTrainer", "CryptoCNNTrainer"}
