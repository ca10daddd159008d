"""global-fallback: a parameter defaults to a ``GLOBAL_*`` via ``is None``.

``cache or GLOBAL_SOLVER_CACHE`` picks the process-wide singleton
whenever ``cache`` is *falsy*, not only when it was omitted.  A
container that defines ``__len__`` -- a fresh ``SolverCache`` -- is
falsy while empty, so a caller passing its own cache for isolation
silently shared the global one (the bug PR 26 fixed at four sites).
The rule flags ``<param> or GLOBAL_*`` inside the function owning the
parameter; ``GLOBAL_X if param is None else param`` says what it means.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Rule, SourceFile, attr_path, register


def _params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return set(names)


def _is_global(node: ast.AST) -> bool:
    path = attr_path(node)
    return path is not None and path.rsplit(".", 1)[-1].startswith("GLOBAL_")


@register
class GlobalFallbackRule(Rule):
    id = "global-fallback"
    severity = "error"
    description = ("no `<param> or GLOBAL_*` defaults: an explicit falsy "
                   "argument (an empty cache) would be replaced by the "
                   "global")

    def check_file(self, src: SourceFile, project) -> list:
        findings = []
        flagged: set[int] = set()
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _params(func)
            for node in ast.walk(func):
                if not (isinstance(node, ast.BoolOp)
                        and isinstance(node.op, ast.Or)):
                    continue
                for left, right in zip(node.values, node.values[1:]):
                    if isinstance(left, ast.Name) and left.id in params \
                            and _is_global(right) and id(left) not in flagged:
                        flagged.add(id(left))
                        findings.append(self.finding(
                            src.rel, node.lineno,
                            f"`{left.id} or {attr_path(right)}` replaces "
                            f"an explicit falsy {left.id!r} (an empty "
                            f"cache) with the global",
                            hint=f"write `{attr_path(right)} if {left.id} "
                                 f"is None else {left.id}`"))
        return findings
