"""lock-discipline: shared attributes are written under the lock, always.

PR 7 fixed three consistent-snapshot races of the same shape: a class
owns a ``threading.Lock``/``RLock`` and guards *most* writes to an
attribute with it, but one code path writes the same attribute bare.
Readers holding the lock then see torn state.  This rule flags, per
class that owns a lock or inherits one:

* any attribute path written both inside and outside a ``with
  self.<lock>:`` block (``__init__`` writes are exempt -- construction
  happens-before sharing), where a subclass's bare write counts
  against the locked writes of its base classes in the scanned files
  (the training service's ``_stopping`` beside its listener's);
* plus, module-scope: a ``GLOBAL_*`` singleton of a lock-less class
  whose methods mutate ``self`` -- shared process-wide with no lock to
  take (the ``GLOBAL_SOLVER_CACHE`` shape).
"""

from __future__ import annotations

import ast

from repro.analysis.core import Rule, SourceFile, attr_path, register

_LOCK_FACTORIES = {"threading.Lock", "threading.RLock",
                   "Lock", "RLock"}


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<x> = threading.Lock()``-style attributes."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        callee = attr_path(node.value.func)
        if callee not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            path = attr_path(target)
            if path is not None and path.startswith("self."):
                locks.add(path.split(".", 1)[1])
    return locks


def _self_writes(node: ast.AST):
    """Yield (dotted path after self, assignment node) for self writes."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    for target in targets:
        elements = target.elts if isinstance(
            target, (ast.Tuple, ast.List)) else [target]
        for el in elements:
            path = attr_path(el)
            if path is not None and path.startswith("self."):
                yield path.split(".", 1)[1], node


def _lineage(cls: ast.ClassDef,
             classes: dict[str, tuple[SourceFile, ast.ClassDef]]
             ) -> list[tuple[SourceFile, ast.ClassDef]]:
    """``cls`` then every base class found among ``classes`` (by name,
    transitively), each once."""
    out = [classes[cls.name]]
    seen = {cls.name}
    for _, node in out:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else \
                getattr(base, "id", None)
            if name in classes and name not in seen:
                seen.add(name)
                out.append(classes[name])
    return out


def _mutates_self(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name == "__init__":
            continue
        for node in ast.walk(item):
            for _path, _n in _self_writes(node):
                return True
    return False


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    severity = "error"
    description = ("attributes written both inside and outside "
                   "`with self._lock:` in lock-owning classes and their "
                   "subclasses; GLOBAL_* singletons of lock-less "
                   "mutable classes")
    # a class and its base classes may live in different files
    scope = "project"

    def check_project(self, project) -> list:
        files = project.files()
        classes = {node.name: (src, node) for src in files
                   for node in src.tree.body
                   if isinstance(node, ast.ClassDef)}
        findings = []
        for src in files:
            lockless_mutable: set[str] = set()
            local = {node.name: (src, node) for node in src.tree.body
                     if isinstance(node, ast.ClassDef)}
            for _, node in local.values():
                lineage = _lineage(node, {**classes, **local})
                locks = set().union(*(_lock_attrs(c) for _, c in lineage))
                if locks:
                    findings.extend(self._check_class(lineage, locks))
                elif _mutates_self(node):
                    lockless_mutable.add(node.name)
            findings.extend(
                self._check_singletons(src, lockless_mutable))
        return findings

    def _check_class(self, lineage: list[tuple[SourceFile, ast.ClassDef]],
                     locks: set[str]) -> list:
        """Flag the first class's bare writes to an attribute that it or
        one of its base classes writes under a lock (outside
        ``__init__``)."""
        src, cls = lineage[0]
        guarded: set[str] = set()
        bare: list[tuple[str, ast.AST]] = []
        for owner_src, owner in lineage:
            for item in owner.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                        or item.name == "__init__":
                    continue
                for node in ast.walk(item):
                    for path, assign in _self_writes(node):
                        if self._under_lock(owner_src, assign, locks):
                            guarded.add(path)
                        elif owner is cls:
                            bare.append((path, assign))
        return [self.finding(
                    src.rel, node.lineno,
                    f"{cls.name}.{path} is written here without "
                    f"the lock but under it elsewhere",
                    hint="move the write inside `with "
                         "self._lock:` so readers holding the lock "
                         "see a consistent snapshot")
                for path, node in bare if path in guarded]

    @staticmethod
    def _under_lock(src: SourceFile, node: ast.AST,
                    locks: set[str]) -> bool:
        for anc in src.ancestors(node):
            if isinstance(anc, (ast.With, ast.AsyncWith)):
                for item in anc.items:
                    path = attr_path(item.context_expr)
                    if path is not None and path.startswith("self.") \
                            and path.split(".", 1)[1] in locks:
                        return True
        return False

    def _check_singletons(self, src: SourceFile,
                          lockless_mutable: set[str]) -> list:
        findings = []
        for node in src.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            callee = node.value.func
            if not (isinstance(callee, ast.Name)
                    and callee.id in lockless_mutable):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and target.id.startswith("GLOBAL_"):
                    findings.append(self.finding(
                        src.rel, node.lineno,
                        f"{target.id} shares a {callee.id} instance "
                        f"process-wide, but {callee.id} owns no lock "
                        f"and its methods mutate self",
                        hint="give the class a threading.Lock and "
                             "guard its mutations"))
        return findings
