"""hotpath-pow: hot-path modules route exponentiation through fastexp.

PR 1/5's entire win is that ``fe/``, ``matrix/`` and the secure layers
never call bare three-argument ``pow`` -- group exponentiation goes
through ``group.exp``/``exp_cached``/``fastexp.multiexp`` so the comb
tables and small signed-exponent forms apply.  A companion pathology
from PR 1: reducing an exponent argument with full-width ``% q`` before
handing it to the exponentiator destroys the small signed form the
fast path depends on.  ``mathutils/`` itself is exempt -- it is where
the real ``pow`` lives.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Rule, SourceFile, register

_EXP_CALLEES = {"exp", "gexp", "exp_cached", "multiexp", "RowPlan"}


def _is_q_mod(node: ast.AST) -> bool:
    """True for ``... % q`` / ``... % self.q`` style reductions."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
        return False
    right = node.right
    if isinstance(right, ast.Name):
        return right.id == "q"
    if isinstance(right, ast.Attribute):
        return right.attr == "q"
    return False


@register
class HotPathPowRule(Rule):
    id = "hotpath-pow"
    severity = "error"
    description = ("no bare 3-arg pow() or full-width %q exponent "
                   "reductions in fe/, matrix/, secure layers")
    paths = ("src/repro/fe/", "src/repro/matrix/",
             "src/repro/core/secure_layers.py")

    def check_file(self, src: SourceFile, project) -> list:
        findings = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "pow" \
                    and len(node.args) == 3:
                findings.append(self.finding(
                    src.rel, node.lineno,
                    "bare 3-arg pow() bypasses the fastexp comb tables",
                    hint="route through group.exp/exp_cached or "
                         "mathutils.fastexp"))
                continue
            callee = node.func.attr if isinstance(
                node.func, ast.Attribute) else (
                node.func.id if isinstance(node.func, ast.Name) else None)
            if callee not in _EXP_CALLEES:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if _is_q_mod(arg):
                    findings.append(self.finding(
                        src.rel, arg.lineno,
                        f"exponent argument to {callee}() is reduced "
                        f"with full-width % q, destroying the small "
                        f"signed-exponent form",
                        hint="pass the small signed exponent through; "
                             "the exponentiator reduces internally"))
        return findings
