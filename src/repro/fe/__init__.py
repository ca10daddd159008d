"""Functional encryption schemes used by CryptoNN.

* :mod:`repro.fe.feip` -- functional encryption for inner products,
  the DDH construction of Abdalla, Bourse, De Caro and Pointcheval
  (PKC'15), reproduced from Section II-B of the CryptoNN paper.
* :mod:`repro.fe.febo` -- the paper's new functional encryption for the
  four basic arithmetic operations (Section III-B), derived from ElGamal.

Both schemes share the Schnorr-group substrate from
:mod:`repro.mathutils.group` and recover plaintext results with the
bounded discrete-log solver from :mod:`repro.mathutils.dlog`.
:mod:`repro.fe.engine` adds the offline/online encryption split: both
schemes' ``encrypt`` accept precomputed single-use nonce tuples, and the
:class:`~repro.fe.engine.EncryptionEngine` banks them.
"""

from repro.fe.engine import EncryptionEngine
from repro.fe.errors import (
    CiphertextError,
    CryptoError,
    FunctionKeyError,
    UnsupportedOperationError,
)
from repro.fe.febo import Febo, FeboOp
from repro.fe.feip import Feip
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboMasterKey,
    FeboNonce,
    FeboPublicKey,
    FeipCiphertext,
    FeipFunctionKey,
    FeipMasterKey,
    FeipNonce,
    FeipPublicKey,
    key_fingerprint,
)

__all__ = [
    "CiphertextError",
    "CryptoError",
    "EncryptionEngine",
    "Febo",
    "FeboCiphertext",
    "FeboFunctionKey",
    "FeboMasterKey",
    "FeboNonce",
    "FeboOp",
    "FeboPublicKey",
    "Feip",
    "FeipCiphertext",
    "FeipFunctionKey",
    "FeipMasterKey",
    "FeipNonce",
    "FeipPublicKey",
    "FunctionKeyError",
    "UnsupportedOperationError",
    "key_fingerprint",
]
