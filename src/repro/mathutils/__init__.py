"""Number-theoretic substrate for the CryptoNN reproduction.

This package replaces the Charm/GMP layer used by the paper's prototype
with pure-Python implementations:

* :mod:`repro.mathutils.primes` -- probabilistic primality testing and
  safe-prime generation.
* :mod:`repro.mathutils.modarith` -- modular arithmetic helpers.
* :mod:`repro.mathutils.group` -- prime-order Schnorr groups where the
  DDH assumption is believed to hold, with precomputed parameters and
  the signed (``min(x, p - x)``) encoding of the elements schemes hand
  out.
* :mod:`repro.mathutils.dlog` -- bounded discrete-logarithm recovery via
  baby-step giant-step, the decryption workhorse of both FE schemes.
* :mod:`repro.mathutils.fastexp` -- fixed-base comb tables and
  simultaneous multi-exponentiation for the modular-exponentiation hot
  path (see ROADMAP.md "Performance architecture").
* :mod:`repro.mathutils.encoding` -- the signed fixed-point codec used to
  map floats into group exponents (the paper keeps "two decimal places").
"""

from repro.mathutils.dlog import DiscreteLogError, DlogSolver
from repro.mathutils.encoding import FixedPointCodec
from repro.mathutils.fastexp import FixedBaseExp, multiexp
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.mathutils.modarith import mod_inverse
from repro.mathutils.primes import gen_safe_prime, is_probable_prime

__all__ = [
    "DiscreteLogError",
    "DlogSolver",
    "FixedBaseExp",
    "FixedPointCodec",
    "GroupParams",
    "SchnorrGroup",
    "multiexp",
    "gen_safe_prime",
    "is_probable_prime",
    "mod_inverse",
]
