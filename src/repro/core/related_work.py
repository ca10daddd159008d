"""The paper's Table I: comparison of privacy-preserving ML approaches.

A static taxonomy, regenerated programmatically so the benchmark harness
covers *every* table in the paper (``benchmarks/bench_table1_comparison.py``
renders this one).
"""

from __future__ import annotations

from dataclasses import dataclass

FULL = "full"        # filled circle: strong crypto guarantee
PARTIAL = "partial"  # half circle: secure-protocol based
MILD = "mild"        # open circle: e.g. differential privacy

SUPPORTED = "yes"      # filled bullet
UNSUPPORTED = "no"     # open bullet


@dataclass(frozen=True)
class ApproachRow:
    """One row of Table I."""

    name: str
    training: str
    prediction: str
    privacy: str
    ml_model: str
    approach: str


TABLE_I: tuple[ApproachRow, ...] = (
    ApproachRow("CryptoML [4]", SUPPORTED, SUPPORTED, MILD, "General",
                "Delegation"),
    ApproachRow("Shokri-Shmatikov [7]", SUPPORTED, UNSUPPORTED, MILD,
                "Deep Learning", "Distributed"),
    ApproachRow("Abadi et al. [8]", SUPPORTED, UNSUPPORTED, MILD,
                "Deep Learning", "Differential Privacy"),
    ApproachRow("SecureML [6]", SUPPORTED, SUPPORTED, PARTIAL, "General",
                "Secure Protocol (SMC)"),
    ApproachRow("DeepSecure [5]", SUPPORTED, SUPPORTED, PARTIAL,
                "Deep Learning", "Secure Protocol (Garbled Circuits)"),
    ApproachRow("CryptoNets [3] et al.", UNSUPPORTED, SUPPORTED, FULL,
                "Covers All", "Homomorphic Encryption (HE)"),
    ApproachRow("Bost et al. [2]", SUPPORTED, SUPPORTED, FULL, "Limited ML",
                "HE + Secure Protocol"),
    ApproachRow("CryptoNN (this work)", SUPPORTED, SUPPORTED, FULL,
                "Neural Networks", "Functional Encryption"),
)


def format_table_i() -> str:
    """Render Table I as aligned plain text."""
    headers = ("Proposed Work", "Training", "Prediction", "Privacy",
               "ML Model", "Approach")
    rows = [
        (r.name, r.training, r.prediction, r.privacy, r.ml_model, r.approach)
        for r in TABLE_I
    ]
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
