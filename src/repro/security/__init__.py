"""Executable security experiments.

Theorem 1 of the paper proves FEBO selectively IND-CPA secure under DDH;
:mod:`repro.security.indcpa` turns the IND-CPA game into a runnable
harness so the *mechanical* prerequisites of the proof (probabilistic
encryption above all) can be checked, and a deliberately-broken variant
can be shown to lose the game.

The games run on the element encoding the schemes ship: ciphertexts
carry signed quadratic residues ``|x| = min(x, p - x)`` (Hofheinz and
Kiltz, "The Group of Signed Quadratic Residues and Applications",
CRYPTO 2009; see :mod:`repro.mathutils.group`).  For a safe prime the
map from the order-q subgroup to ``[1, q]`` is a group isomorphism,
computable both ways, so a DDH distinguisher on signed residues is one
on the subgroup: DDH holds in both or in neither.  The IND-CPA
reductions for FEIP and FEBO go through unchanged, and the canonical
form is a public function of a ciphertext, so it leaks nothing the raw
residue would not.
"""

from repro.security.indcpa import (
    DeterministicFeboAdapter,
    FeboIndCpaAdapter,
    FeipIndCpaAdapter,
    replay_distinguisher,
    run_indcpa_game,
)

__all__ = [
    "DeterministicFeboAdapter",
    "FeboIndCpaAdapter",
    "FeipIndCpaAdapter",
    "replay_distinguisher",
    "run_indcpa_game",
]
