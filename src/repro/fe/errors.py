"""Exception hierarchy for the functional-encryption layer."""


class CryptoError(Exception):
    """Base class for all crypto-layer failures."""


class CiphertextError(CryptoError):
    """Malformed or incompatible ciphertext (wrong length, bad element)."""


class FunctionKeyError(CryptoError):
    """Function key does not match the requested operation/ciphertext."""


class UnsupportedOperationError(CryptoError):
    """Operation outside the permitted function set F."""


class CommitmentError(FunctionKeyError):
    """A key request names a commitment that encodes no subgroup element."""
