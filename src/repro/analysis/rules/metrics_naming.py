"""metrics-naming: every metric follows the ROADMAP naming scheme.

The observability layer's contract (PR 7): every exported series is
``repro_<area>_<what>``, lowercase with underscores, counters end in
``_total``, gauges and histograms do not, and labeled histograms use
the Prometheus form ``repro_phase_seconds{phase="..."}``.  Dashboards
and the scrape tests key on these names, so a misnamed metric is a
silent observability hole.  This rule checks every ``repro_*`` string
literal in ``src/repro`` against the charset, and enforces the suffix
contract at ``registry.counter/histogram`` call sites (f-strings are
checked by their literal prefix).  Gauges are collector readings, so
only the charset pass sees their names.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import Rule, attr_path, register

_NAME_RE = re.compile(r"^repro_[a-z0-9_]+(\{[^{}]*\}?)?$")
_METHODS = {"counter", "histogram"}


def _literal_name(arg) -> tuple[str, bool] | None:
    """(name, is_complete) for a str constant or f-string prefix."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, True
    if isinstance(arg, ast.JoinedStr) and arg.values:
        first = arg.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, False
        return "", False
    return None


@register
class MetricsNamingRule(Rule):
    id = "metrics-naming"
    severity = "error"
    description = ("metric names match repro_[a-z0-9_]+; counters end "
                   "_total, gauges/histograms do not")
    scope = "project"

    def check_project(self, project) -> list:
        findings = []
        for src in project.files():
            if not src.rel.startswith("src/repro/"):
                continue
            if src.rel.startswith("src/repro/analysis/"):
                continue  # the analyzer's own prose mentions repro_*
            checked_nodes: set[int] = set()
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _METHODS \
                        and node.args:
                    recv = attr_path(node.func.value) or ""
                    if "registry" not in recv.lower():
                        continue
                    findings.extend(self._check_registration(
                        src, node, checked_nodes))
            # any other repro_* literal (collector dict keys etc.)
            for node in ast.walk(src.tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and node.value.startswith("repro_") \
                        and id(node) not in checked_nodes:
                    if not _NAME_RE.match(node.value):
                        findings.append(self.finding(
                            src.rel, node.lineno,
                            f"metric name {node.value!r} violates the "
                            f"repro_[a-z0-9_]+ scheme",
                            hint="lowercase, underscores, repro_ "
                                 "prefix (ROADMAP naming table)"))
        return findings

    def _check_registration(self, src, node: ast.Call,
                            checked_nodes: set[int]) -> list:
        method = node.func.attr
        parsed = _literal_name(node.args[0])
        if parsed is None:
            return []
        name, complete = parsed
        # mark the literal as handled so the generic pass skips it
        arg = node.args[0]
        if isinstance(arg, ast.Constant):
            checked_nodes.add(id(arg))
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            checked_nodes.add(id(arg.values[0]))
        if not name.startswith("repro_"):
            return [self.finding(
                src.rel, node.lineno,
                f"{method}() metric {name!r} lacks the repro_ prefix",
                hint="repro_<area>_<what> per the ROADMAP scheme")]
        base = name.split("{", 1)[0]
        if complete and not _NAME_RE.match(name):
            return [self.finding(
                src.rel, node.lineno,
                f"{method}() metric {name!r} violates the "
                f"repro_[a-z0-9_]+ scheme",
                hint="lowercase, underscores, repro_ prefix")]
        if method == "counter" and complete \
                and not base.endswith("_total"):
            return [self.finding(
                src.rel, node.lineno,
                f"counter {name!r} must end in _total",
                hint="counters carry the _total suffix so the "
                     "snapshot routes them to the counters section")]
        if method == "histogram" and base.endswith("_total"):
            return [self.finding(
                src.rel, node.lineno,
                f"{method} {name!r} must not end in _total "
                f"(that suffix marks counters)",
                hint="drop the _total suffix for non-counters")]
        return []
