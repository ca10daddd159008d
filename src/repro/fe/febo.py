"""FEBO: functional encryption for basic operations (paper Section III-B).

This is the CryptoNN paper's own contribution: an ElGamal-derived scheme
computing ``f_delta(x, y) = x delta y`` for ``delta in {+, -, *, /}`` where
``x`` is encrypted and ``y`` is the server-side plaintext operand.

* ``Setup(1^lambda)``: ``msk = s``, ``mpk = (h = g^s, g)``.
* ``Encrypt(mpk, x)``: nonce ``r``; commitment ``cmt = g^r``; ``ct = h^r g^x``.
* ``KeyDerive(msk, cmt, delta, y)``::

      sk = cmt^s * g^{-y}     (delta = +)
      sk = cmt^s * g^{y}      (delta = -)
      sk = (cmt^s)^y          (delta = *)
      sk = (cmt^s)^{y^{-1}}   (delta = /)

* ``Decrypt``: ``g^{x+y} = ct / sk`` (add/sub), ``g^{x*y} = ct^y / sk``
  (mul), ``g^{x/y} = ct^{y^{-1}} / sk`` (div), then a bounded discrete log.

Notes faithful to the paper:

* keys are **per-ciphertext** (they depend on the commitment);
* division computes ``x * y^{-1} mod q``, which equals the rational x/y
  only when ``y`` divides ``x`` -- :meth:`Febo.decrypt` therefore only
  supports exact division and raises otherwise;
* the scheme is IND-CPA under DDH (Theorem 1) but intentionally does not
  resist the *direct inference* by an authorized decryptor, which the
  framework layer mitigates with label randomization.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Sequence

from repro.fe.errors import (
    CiphertextError,
    FunctionKeyError,
    UnsupportedOperationError,
)
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboMasterKey,
    FeboNonce,
    FeboPublicKey,
    key_fingerprint,
)
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE, DlogSolver, SolverCache
from repro.mathutils.group import GroupParams, SchnorrGroup, canonical
from repro.mathutils.modarith import batch_inverse


class FeboOp(str, enum.Enum):
    """The four permitted arithmetic operations ``delta``."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"

    @classmethod
    def coerce(cls, value: "FeboOp | str") -> "FeboOp":
        """Accept either an enum member or its symbol."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise UnsupportedOperationError(
                f"operation {value!r} not in permitted set {[o.value for o in cls]}"
            ) from None


class Febo:
    """Stateless FEBO scheme over a fixed Schnorr group.

    It keeps no ``cmt^s`` masks.  An in-process server decrypts with
    the very object its authority derives keys with, so a memo here
    would be shared with the server; the memo lives in
    :class:`~repro.core.entities.TrustedAuthority` instead, which
    composes keys with :meth:`key_from_mask`.
    """

    def __init__(self, params: GroupParams, rng: random.Random | None = None,
                 solver_cache: SolverCache | None = None):
        self.group = SchnorrGroup(params, rng=rng)
        self._solver_cache = GLOBAL_SOLVER_CACHE if solver_cache is None \
            else solver_cache

    # -- algorithms ---------------------------------------------------------
    def setup(self) -> tuple[FeboPublicKey, FeboMasterKey]:
        s = self.group.random_exponent()
        return (
            FeboPublicKey(params=self.group.params, h=self.group.gexp(s)),
            FeboMasterKey(s=s),
        )

    def encrypt(self, mpk: FeboPublicKey, x: int,
                nonce: FeboNonce | None = None) -> FeboCiphertext:
        """Encrypt the signed integer ``x``.

        With a precomputed ``nonce`` (commitment + mask) only the
        online half runs: one small-exponent ``g^x`` and one multiply.
        Single-use, key-fingerprint and canonical-form rules as in
        :meth:`repro.fe.feip.Feip.encrypt`.
        """
        group = self.group
        if nonce is not None:
            if nonce.key_fp != key_fingerprint(mpk):
                raise CiphertextError(
                    "nonce was precomputed for a different public key"
                )
            cmt = nonce.cmt
            ct = group.mul(nonce.mask, group.gexp(int(x)))
        else:
            r = group.random_exponent()
            # g and h are reused across every encryption under this key,
            # so the full-width exponentiations go through fixed-base
            # tables.
            cmt = group.gexp(r)
            ct = group.mul(group.exp_cached(mpk.h, r), group.gexp(int(x)))
        p = group.p
        return FeboCiphertext(cmt=canonical(cmt, p), ct=canonical(ct, p))

    def key_derive(self, msk: FeboMasterKey, cmt: int, op: FeboOp | str,
                   y: int) -> FeboFunctionKey:
        """Derive the per-ciphertext function key for ``x op y``.

        One full-width ``cmt^s``, then :meth:`key_from_mask`: the
        byte-exact reference for every key an authority composes from a
        mask it derived earlier.  ``sk`` is handed out in
        :func:`~repro.mathutils.group.canonical` form, like the
        ciphertext elements.
        """
        op = FeboOp.coerce(op)
        return self.key_from_mask(self.group.exp(cmt, msk.s), cmt, op, y)

    def key_from_mask(self, cmt_s: int, cmt: int, op: FeboOp | str,
                      y: int) -> FeboFunctionKey:
        """The key for ``x op y`` from the commitment's mask ``cmt^s``.

        The mask depends only on the master key and ``cmt``, so a
        caller holding masks it derived before (the authority's memo)
        composes each key with small-exponent work: one ``g^{-+y}``
        and a product for ``+``/``-``, ``cmt_s^y`` for ``*``, and the
        full-width ``cmt_s^{y^{-1}}`` for ``/``.
        """
        op = FeboOp.coerce(op)
        group = self.group
        y = int(y)
        if op is FeboOp.ADD:
            sk = group.mul(cmt_s, group.gexp(-y))
        elif op is FeboOp.SUB:
            sk = group.mul(cmt_s, group.gexp(y))
        elif op is FeboOp.MUL:
            sk = group.exp(cmt_s, y)
        else:  # DIV
            if y % group.q == 0:
                raise FunctionKeyError("division by zero operand")
            sk = group.exp(cmt_s, group.exp_inverse(y))
        return FeboFunctionKey(op=op.value, y=y, sk=canonical(sk, group.p),
                               cmt=cmt)

    def _numerator(self, skf: FeboFunctionKey,
                   ciphertext: FeboCiphertext) -> int:
        """The element ``decrypt_raw`` divides ``skf.sk`` out of."""
        if skf.cmt and skf.cmt != ciphertext.cmt:
            raise FunctionKeyError(
                "function key was derived for a different ciphertext"
            )
        op = FeboOp.coerce(skf.op)
        group = self.group
        if op in (FeboOp.ADD, FeboOp.SUB):
            return ciphertext.ct
        if op is FeboOp.MUL:
            return group.exp(ciphertext.ct, skf.y)
        # DIV
        return group.exp(ciphertext.ct, group.exp_inverse(skf.y))

    def decrypt_raw(self, mpk: FeboPublicKey, skf: FeboFunctionKey,
                    ciphertext: FeboCiphertext) -> int:
        """Return ``g^{f_delta(x, y)}`` up to sign."""
        return self.group.div(self._numerator(skf, ciphertext), skf.sk)

    def decrypt(self, mpk: FeboPublicKey, skf: FeboFunctionKey,
                ciphertext: FeboCiphertext, bound: int,
                solver: DlogSolver | None = None) -> int:
        """Recover ``x op y`` assuming the result is within ``[-bound, bound]``.

        For division the result is only meaningful when ``y`` divides ``x``
        exactly; otherwise ``x * y^{-1} mod q`` is (with overwhelming
        probability) outside any reasonable bound and a
        :class:`~repro.mathutils.dlog.DiscreteLogError` is raised.
        """
        element = self.decrypt_raw(mpk, skf, ciphertext)
        solver = solver or self.solver_for(bound)
        return solver.solve(element)

    def decrypt_many(self, mpk: FeboPublicKey,
                     items: "Sequence[tuple[FeboFunctionKey, FeboCiphertext]]",
                     bound: int, solver: DlogSolver | None = None
                     ) -> list[int]:
        """Batched :meth:`decrypt` over ``(key, ciphertext)`` pairs.

        FEBO keys are per-ciphertext, so unlike FEIP there are no shared
        bases to amortize.  Two steps are shared instead: every key's
        ``sk`` is divided out with one Montgomery
        :func:`~repro.mathutils.modarith.batch_inverse` (one modular
        inversion for the grid, not one per cell), and all raw elements
        go through the solver's batched
        :meth:`~repro.mathutils.dlog.DlogSolver.solve_many`, one
        deduplicated giant-step walk for the whole grid.  The elements
        equal :meth:`decrypt_raw`'s, which stays the per-cell reference.
        """
        items = list(items)
        p = self.group.p
        numerators = [self._numerator(skf, ct) for skf, ct in items]
        inverses = batch_inverse([skf.sk for skf, _ in items], p)
        elements = [n * inv % p for n, inv in zip(numerators, inverses)]
        solver = solver or self.solver_for(bound)
        return solver.solve_many(elements)

    def solver_for(self, bound: int) -> DlogSolver:
        """Public accessor for the cached bounded-dlog solver."""
        return self._solver_cache.get(self.group, bound)
