"""Authority-side key-release policy.

The paper's security analysis assumes the server is "not an active
attacker" (Section IV-A) -- but the authority is the natural place to
*enforce* pieces of that assumption, because every function key passes
through it.  Known attacks on FE-based pipelines (Ligier et al. 2017;
Carpov et al. 2018, both cited by the paper) work by accumulating many
carefully-chosen inner-product keys, so the policy layer lets a
deployment:

* reject degenerate weight vectors (unit vectors / near-unit vectors
  that decrypt single coordinates outright);
* cap the number of distinct FEIP key vectors released per public key
  (each linearly-independent vector reveals one dimension of the
  plaintext subspace -- after ``eta`` of them the plaintext is fully
  determined);
* restrict FEBO operations to a whitelist;
* keep an audit log of everything it released.

These controls are conservative: the default CryptoNN training loop
passes them, an adversarial extraction loop trips them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class PolicyViolation(Exception):
    """The authority refused to derive a key."""


@dataclass(frozen=True)
class AuditEntry:
    """One key release (or refusal)."""

    kind: str            # "feip" or "febo"
    requester: str
    detail: str
    granted: bool


@dataclass
class KeyReleasePolicy:
    """Configurable checks applied before key derivation.

    Attributes:
        forbid_unit_vectors: reject FEIP vectors whose mass concentrates
            on one coordinate (would decrypt that feature directly).
        unit_mass_threshold: fraction of total L1 mass one coordinate may
            carry before the vector counts as "unit-like".  1.0 disables.
        max_distinct_vectors: cap on distinct FEIP vectors per vector
            length; None disables.  At ``eta - 1`` it refuses the
            eta-th distinct vector of a length.  Every weight update
            hands out new first-layer rows, so that also refuses
            ordinary training: after ``eta - 1`` weight updates with a
            single key row, sooner with one row per hidden unit.
        allowed_febo_ops: permitted FEBO operation symbols.
    """

    forbid_unit_vectors: bool = False
    unit_mass_threshold: float = 0.99
    max_distinct_vectors: int | None = None
    allowed_febo_ops: frozenset[str] = frozenset("+-*/")
    audit_log: list[AuditEntry] = field(default_factory=list)
    _seen_vectors: dict[int, set[tuple[int, ...]]] = field(default_factory=dict)

    # -- FEIP ---------------------------------------------------------------
    def check_feip_request(self, rows: list[list[int]],
                           requester: str = "server") -> None:
        """Raise :class:`PolicyViolation` if any row is disallowed."""
        for row in rows:
            vector = tuple(int(v) for v in row)
            try:
                self._check_one_feip_vector(vector)
            except PolicyViolation as violation:
                self.audit_log.append(AuditEntry(
                    "feip", requester, str(violation), granted=False))
                raise
            self.audit_log.append(AuditEntry(
                "feip", requester, f"vector len={len(vector)}", granted=True))

    def _check_one_feip_vector(self, vector: tuple[int, ...]) -> None:
        if self.forbid_unit_vectors and len(vector) > 1:
            magnitudes = np.abs(np.array(vector, dtype=np.float64))
            total = magnitudes.sum()
            if total > 0 and magnitudes.max() / total >= self.unit_mass_threshold:
                raise PolicyViolation(
                    "weight vector concentrates on a single coordinate; "
                    "releasing its key would decrypt that feature directly"
                )
        if self.max_distinct_vectors is not None:
            seen = self._seen_vectors.setdefault(len(vector), set())
            if vector not in seen:
                if len(seen) >= self.max_distinct_vectors:
                    raise PolicyViolation(
                        f"distinct-vector budget ({self.max_distinct_vectors}) "
                        f"for length-{len(vector)} keys exhausted"
                    )
                seen.add(vector)

    # -- FEBO ---------------------------------------------------------------
    def check_febo_request(self, op: str, requester: str = "server") -> None:
        if op not in self.allowed_febo_ops:
            self.audit_log.append(AuditEntry(
                "febo", requester, f"op {op!r} not allowed", granted=False))
            raise PolicyViolation(f"FEBO operation {op!r} is not permitted")
        self.audit_log.append(AuditEntry(
            "febo", requester, f"op {op!r}", granted=True))

    # -- reporting --------------------------------------------------------------
    def refusals(self) -> list[AuditEntry]:
        return [e for e in self.audit_log if not e.granted]

    def grants(self) -> list[AuditEntry]:
        return [e for e in self.audit_log if e.granted]
