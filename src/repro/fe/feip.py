"""FEIP: functional encryption for inner products (Abdalla et al., PKC'15).

The scheme computes ``f(x, y) = <x, y>`` over an encrypted vector ``x``
and a plaintext weight vector ``y`` baked into the function key:

* ``Setup(1^lambda, 1^eta)``: sample ``s = (s_1..s_eta)`` from Z_q, publish
  ``mpk = (g, h_i = g^{s_i})`` and keep ``msk = s``.
* ``KeyDerive(msk, y)``: ``sk_f = <y, s> mod q``.
* ``Encrypt(mpk, x)``: sample nonce ``r``; ``ct_0 = g^r``,
  ``ct_i = h_i^r * g^{x_i}``.
* ``Decrypt``: ``g^{<x,y>} = prod_i ct_i^{y_i} / ct_0^{sk_f}`` followed by a
  bounded discrete log.

Security is selective IND-CPA under DDH (proof in the original paper; the
CryptoNN paper reuses it verbatim).

**Offline/online split.**  Encryption factors into a plaintext-independent
offline half -- sample ``r``, compute ``ct_0 = g^r`` and the masks
``h_i^r`` (all full-width exponentiations) -- and an online half that is
one *small-exponent* ``g^{x_i}`` plus one modular multiply per element.
:meth:`Feip.encrypt` accepts a precomputed
:class:`~repro.fe.keys.FeipNonce` carrying the offline half;
:class:`~repro.fe.engine.EncryptionEngine` banks such tuples (one batch
in the caller, or pool-parallel) and guarantees each is
consumed exactly once -- nonce reuse breaks IND-CPA, and a nonce built
for a different public key is rejected by fingerprint.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.fe.errors import CiphertextError, FunctionKeyError
from repro.fe.keys import (
    FeipCiphertext,
    FeipFunctionKey,
    FeipMasterKey,
    FeipNonce,
    FeipPublicKey,
    key_fingerprint,
)
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE, DlogSolver, SolverCache
from repro.mathutils.fastexp import (
    GLOBAL_COLUMN_CACHE,
    RowPlan,
    SharedBaseMultiExp,
)
from repro.mathutils.group import GroupParams, SchnorrGroup, canonical


class Feip:
    """Stateless FEIP scheme over a fixed Schnorr group.

    One instance may serve many key pairs; all state lives in the key
    objects so the authority / client / server split of the CryptoNN
    framework maps onto plain function calls.
    """

    def __init__(self, params: GroupParams, rng: random.Random | None = None,
                 solver_cache: SolverCache | None = None):
        self.group = SchnorrGroup(params, rng=rng)
        self._solver_cache = GLOBAL_SOLVER_CACHE if solver_cache is None \
            else solver_cache

    # -- algorithms ---------------------------------------------------------
    def setup(self, eta: int) -> tuple[FeipPublicKey, FeipMasterKey]:
        """Generate a key pair supporting vectors of length ``eta``."""
        if eta < 1:
            raise ValueError("vector length eta must be >= 1")
        s = tuple(self.group.random_exponent() for _ in range(eta))
        h = tuple(self.group.gexp(si) for si in s)
        return FeipPublicKey(params=self.group.params, h=h), FeipMasterKey(s=s)

    def key_derive(self, msk: FeipMasterKey, y: Sequence[int]) -> FeipFunctionKey:
        """Derive ``sk_f = <y, s> mod q`` for weight vector ``y``."""
        if len(y) != msk.eta:
            raise FunctionKeyError(
                f"weight vector length {len(y)} != key length {msk.eta}"
            )
        q = self.group.q
        sk = sum(int(yi) * si for yi, si in zip(y, msk.s)) % q
        return FeipFunctionKey(y=tuple(int(v) for v in y), sk=sk)

    def encrypt(self, mpk: FeipPublicKey, x: Sequence[int],
                nonce: FeipNonce | None = None) -> FeipCiphertext:
        """Encrypt integer vector ``x`` (signed entries allowed).

        With a precomputed ``nonce`` only the online half runs: one
        small-exponent ``g^{x_i}`` and one multiply per element.  The
        nonce must have been built for this ``mpk`` (fingerprint
        checked) and must never be passed twice -- single-use is the
        caller's contract (the engine's store enforces it).

        Every element is handed out in
        :func:`~repro.mathutils.group.canonical` form, so decryption
        recovers ``g^{<x, y>}`` up to sign.
        """
        if len(x) != mpk.eta:
            raise CiphertextError(
                f"plaintext length {len(x)} != key length {mpk.eta}"
            )
        group = self.group
        if nonce is not None:
            if nonce.key_fp != key_fingerprint(mpk) or nonce.eta != mpk.eta:
                raise CiphertextError(
                    "nonce was precomputed for a different public key"
                )
            ct0 = nonce.ct0
            ct = (group.mul(mask, group.gexp(int(xi)))
                  for mask, xi in zip(nonce.masks, x))
        else:
            r = group.random_exponent()
            # g and the h_i are reused across every encryption under this
            # key, so all full-width exponentiations go through fixed-base
            # tables.
            ct0 = group.gexp(r)
            ct = (group.mul(group.exp_cached(hi, r), group.gexp(int(xi)))
                  for hi, xi in zip(mpk.h, x))
        p = group.p
        return FeipCiphertext(ct0=canonical(ct0, p),
                              ct=tuple(canonical(c, p) for c in ct))

    def decrypt_raw(self, mpk: FeipPublicKey, ciphertext: FeipCiphertext,
                    skf: FeipFunctionKey) -> int:
        """Return ``g^{<x, y>}`` up to sign (no discrete log)."""
        if ciphertext.eta != len(skf.y):
            raise CiphertextError(
                f"ciphertext length {ciphertext.eta} != weight length {len(skf.y)}"
            )
        group = self.group
        # One simultaneous multi-exponentiation replaces the per-entry
        # square-and-multiply loop; folding ct0^{-sk} in as a plain pow
        # also avoids the former explicit modular inversion.
        numerator = group.multiexp(ciphertext.ct, skf.y)
        return group.mul(numerator, group.exp(ciphertext.ct0, -skf.sk))

    def decrypt(self, mpk: FeipPublicKey, ciphertext: FeipCiphertext,
                skf: FeipFunctionKey, bound: int,
                solver: DlogSolver | None = None) -> int:
        """Recover ``<x, y>`` assuming ``|<x, y>| <= bound``.

        Raises:
            DiscreteLogError: when the true inner product falls outside
                ``[-bound, bound]`` or the ciphertext/key are inconsistent.
        """
        element = self.decrypt_raw(mpk, ciphertext, skf)
        solver = solver or self.solver_for(bound)
        return solver.solve(element)

    def row_plan(self, keys: Sequence[FeipFunctionKey]) -> RowPlan:
        """Recode a key set once for every :meth:`decrypt_rows` column.

        The plan carries each row's weights ``y_i`` as sliding-window
        digits and its ``sk_i`` as signed comb or chain digits, so a
        column only builds its own tables and walks the plan.  It
        records the keys' ``sk``, which :meth:`decrypt_rows` checks.
        """
        keys = list(keys)
        if len({len(skf.y) for skf in keys}) > 1:
            raise FunctionKeyError("function keys have different lengths")
        group = self.group
        return RowPlan([skf.y for skf in keys], group.q,
                       fixed_exponents=[-skf.sk for skf in keys],
                       source=tuple(skf.sk for skf in keys))

    def decrypt_rows(self, mpk: FeipPublicKey, ciphertext: FeipCiphertext,
                     keys: Sequence[FeipFunctionKey], bound: int,
                     solver: DlogSolver | None = None,
                     plan: RowPlan | None = None) -> list[int]:
        """Recover ``[<x, y_i>]`` for every key against one ciphertext.

        The batched form of :meth:`decrypt`: all rows of a decryption
        matrix share the same ciphertext bases, so one
        :class:`~repro.mathutils.fastexp.SharedBaseMultiExp` context
        builds the per-base window tables once, raises ``ct_0`` on a comb
        built for the column or, for fewer than
        :data:`~repro.mathutils.fastexp.CHAIN_MAX_ROWS` keys, on its
        cached squaring chain, walks every row of ``plan``
        (:meth:`row_plan` of ``keys``, built here when not given)
        against them, and hands the whole column of
        group elements to the solver's shared walk.  A comb-mode
        column's odd powers and comb come from
        :data:`~repro.mathutils.fastexp.GLOBAL_COLUMN_CACHE`, keyed by
        the modulus and the whole ciphertext, so a ciphertext decrypted
        again in a later epoch or in evaluation only walks its rows;
        the first decryption builds them at the plan's windows, and a
        plan with other windows rebuilds them.  Row *i* of the
        result equals ``decrypt(mpk, ciphertext, keys[i], bound)``
        exactly -- the per-row path remains the reference
        implementation.

        Raises:
            DiscreteLogError: when any inner product falls outside
                ``[-bound, bound]``.
            FunctionKeyError: when ``plan`` was built for other keys.
        """
        if not keys:
            return []
        if plan is None:
            plan = self.row_plan(keys)
        elif plan.source != tuple(skf.sk for skf in keys):
            raise FunctionKeyError("row plan was built for another key set")
        if ciphertext.eta != plan.n_bases:
            raise CiphertextError(
                f"ciphertext length {ciphertext.eta} != weight length "
                f"{plan.n_bases}"
            )
        group = self.group
        context = SharedBaseMultiExp(ciphertext.ct, group.p,
                                     fixed_base=ciphertext.ct0,
                                     column_cache=GLOBAL_COLUMN_CACHE)
        elements = context.eval_plan(plan)
        solver = solver or self.solver_for(bound)
        return solver.solve_many(elements)

    def solver_for(self, bound: int) -> DlogSolver:
        """Public accessor for the cached bounded-dlog solver."""
        return self._solver_cache.get(self.group, bound)
