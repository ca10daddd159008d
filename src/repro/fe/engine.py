"""Offline/online encryption engine for the client-side hot path.

The paper's cost profile (Figures 3-5) is modular exponentiation, on
the client as on the server.  This module applies the classic
offline/online split for DDH-style schemes.  Every
FEIP encryption spends ``1 + eta`` full-width exponentiations on values
that do not depend on the plaintext -- the nonce commitment ``g^r`` and
the masks ``h_i^r`` -- and only a *small-exponent* ``g^{x_i}`` on the
message itself.  Precomputing ``(r, g^r, h_1^r..h_eta^r)`` tuples ahead
of time therefore moves essentially the whole encryption cost off the
critical path: the online phase is one tiny comb-table walk plus one
modular multiply per element.

:class:`EncryptionEngine` owns per-public-key stores of precomputed
:class:`~repro.fe.keys.FeipNonce` / :class:`~repro.fe.keys.FeboNonce`
tuples.  Every tuple it hands out is assembled by :func:`assemble_nonces`
from the powers :func:`nonce_powers` raises, in the caller or on the
workers of a pool:

* :meth:`~EncryptionEngine.prefill_feip` /
  :meth:`~EncryptionEngine.prefill_febo` bank a batch ahead of use
  (on an attached :class:`~repro.matrix.parallel.SecureComputePool`'s
  workers when one is configured, one batch in the caller otherwise);
* the bulk calls make the part of a batch the store cannot cover the
  same way, as one batch;
* a single encryption that finds its store empty makes a batch of one
  in the caller.  Both kinds of on-demand tuple are counted in
  :attr:`~EncryptionEngine.misses`, so the engine is always correct,
  just slower when cold.

Batching matters because a batch's nonces are recoded once as signed
comb digits, and each public base gets a comb sized for that batch and
dropped with it, instead of a process-lifetime table sized for
thousands of uses.

**Nonce hygiene is the safety property.**  Reusing ``r`` across two
ciphertexts is an IND-CPA break (the ratio of the two ciphertexts
reveals ``g^{x_i - x'_i}``), so the store hands every tuple out at most
once: consumption is a ``deque.popleft`` under a lock, atomic under
thread concurrency, and each nonce carries the fingerprint of the
public key it was built for so cross-key use raises instead of
corrupting data.  ``tests/test_engine.py`` pins both properties.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from collections.abc import Sequence

from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.fe.keys import (
    FeboCiphertext,
    FeboNonce,
    FeboPublicKey,
    FeipCiphertext,
    FeipNonce,
    FeipPublicKey,
    key_fingerprint,
)
from repro.mathutils.fastexp import RowPlan, SharedBaseMultiExp
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.obs.tracing import GLOBAL_TRACER


def public_bases(group: SchnorrGroup, mpk) -> tuple[int, ...]:
    """The bases a nonce for ``mpk`` raises: ``g`` and the key's ``h_i``
    (FEIP) or ``h`` (FEBO), in the order :func:`assemble_nonces` reads."""
    if isinstance(mpk, FeipPublicKey):
        return (group.g, *mpk.h)
    return (group.g, mpk.h)


def nonce_powers(params: GroupParams, bases: Sequence[int],
                 rs: Sequence[int]) -> list[list[int]]:
    """Raise every base to every nonce: ``powers[b][k] == bases[b] ** rs[k]``.

    The nonces are recoded once as a :class:`RowPlan` of fixed exponents
    only -- the recoding FEIP decryption uses for ``ct_0^{-sk}`` -- and
    each base then builds one comb sized by
    :func:`~repro.mathutils.fastexp.amortized_comb_window` for exactly
    ``len(rs)`` uses, freed with the batch.  Batches of fewer than
    :data:`~repro.mathutils.fastexp.CHAIN_MAX_ROWS` nonces walk each
    base's cached squaring chain instead, at every group size.  A pool
    worker runs this on its share of a batch's bases or nonces.
    """
    plan = RowPlan([[] for _ in rs], params.q, fixed_exponents=rs)
    return [SharedBaseMultiExp([], params.p, fixed_base=base).eval_plan(plan)
            for base in bases]


def assemble_nonces(mpk, rs: Sequence[int], powers: Sequence[Sequence[int]]
                    ) -> list:
    """The nonce tuples of one batch, from ``nonce_powers`` over
    ``public_bases(group, mpk)``: :class:`FeipNonce` for a FEIP key,
    :class:`FeboNonce` for a FEBO key."""
    fp = key_fingerprint(mpk)
    g_powers, *masks = powers
    if isinstance(mpk, FeipPublicKey):
        return [FeipNonce(r=r, ct0=ct0, masks=row, key_fp=fp)
                for r, ct0, row in zip(rs, g_powers, zip(*masks))]
    h_powers, = masks
    return [FeboNonce(r=r, cmt=cmt, mask=mask, key_fp=fp)
            for r, cmt, mask in zip(rs, g_powers, h_powers)]


def make_nonces(group: SchnorrGroup, mpk, count: int) -> list:
    """Compute ``count`` offline tuples for ``mpk`` in one batch in the
    caller, drawing the nonces from ``group``'s rng: ``(r, g^r, h_i^r)``
    for a FEIP key, ``(r, g^r, h^r)`` for a FEBO key.
    """
    rs = [group.random_exponent() for _ in range(count)]
    return assemble_nonces(
        mpk, rs, nonce_powers(group.params, public_bases(group, mpk), rs))


class _NonceStore:
    """Thread-safe FIFO of single-use nonces.

    ``pop`` and ``pop_many`` are the atomic consumption points: a tuple
    leaves the store exactly once, whichever thread wins the lock.
    """

    def __init__(self):
        self._items: deque = deque()
        self._lock = threading.Lock()

    def push_many(self, nonces) -> None:
        with self._lock:
            self._items.extend(nonces)

    def pop(self):
        with self._lock:
            return self._items.popleft() if self._items else None

    def pop_many(self, count: int) -> list:
        """Up to ``count`` tuples, oldest first."""
        with self._lock:
            return [self._items.popleft()
                    for _ in range(min(count, len(self._items)))]

    def __len__(self) -> int:
        return len(self._items)


class EncryptionEngine:
    """Precomputed-nonce encryption for FEIP and FEBO.

    One engine serves any number of public keys (the CryptoNN client
    encrypts under one FEIP key per vector length plus one FEBO key);
    stores are keyed by the public-key fingerprint so material can never
    cross keys.

    Args:
        params: the Schnorr group both schemes operate in.
        rng: nonce randomness (defaults to a fresh OS-seeded Random).
        pool: optional :class:`~repro.matrix.parallel.SecureComputePool`
            whose workers make the nonce batches (prefills and bulk
            remainders).
        feip, febo: scheme instances to encrypt with (a client passes
            its authority's, sharing their groups' ``g`` tables and
            rng); fresh ones over ``params`` and ``rng`` otherwise.
    """

    def __init__(self, params: GroupParams, rng: random.Random | None = None,
                 pool=None, *, feip: Feip | None = None,
                 febo: Febo | None = None):
        self.params = params
        self.feip = feip or Feip(params, rng=rng)
        self.febo = febo or Febo(params, rng=rng)
        self.pool = pool
        self._stores: dict[int, _NonceStore] = {}
        self._stores_lock = threading.Lock()
        # counters race without their own lock: += is a non-atomic
        # read-modify-write even under the GIL
        self._stats_lock = threading.Lock()
        #: offline tuples produced / consumed / computed on demand
        self.precomputed = 0
        self.consumed = 0
        self.misses = 0
        GLOBAL_REGISTRY.register_collector(
            f"engine.{id(self)}", self._obs_collect)

    def _count(self, attr: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self, attr, getattr(self, attr) + n)

    def stats(self) -> dict[str, int]:
        """One consistent snapshot of the hit/miss counters.

        Reading the three attributes individually can interleave with a
        concurrent ``_count`` (another thread prefilling or encrypting)
        and report e.g. a consumption without its production; copying
        under the same lock the writers take closes that gap.
        """
        with self._stats_lock:
            return {
                "precomputed": self.precomputed,
                "consumed": self.consumed,
                "misses": self.misses,
            }

    def _obs_collect(self) -> dict[str, int]:
        """Registry collector: counters plus current nonce-store depth."""
        stats = self.stats()
        with self._stores_lock:
            depth = sum(len(s) for s in self._stores.values())
        return {
            "repro_engine_precomputed_total": stats["precomputed"],
            "repro_engine_consumed_total": stats["consumed"],
            "repro_engine_misses_total": stats["misses"],
            "repro_engine_nonce_store_depth": depth,
        }

    # -- offline phase --------------------------------------------------------
    def _store(self, mpk) -> _NonceStore:
        fp = key_fingerprint(mpk)
        with self._stores_lock:
            store = self._stores.get(fp)
            if store is None:
                store = self._stores[fp] = _NonceStore()
            return store

    def _nonces(self, mpk, count: int) -> list:
        """``count`` fresh tuples for ``mpk`` (a FEIP or FEBO key).

        Workers of the attached pool raise the bases (to nonces the
        pool draws from an OS-seeded generator); without a pool they
        are one batch in the caller, from the scheme's rng.
        """
        if self.pool is not None:
            return self.pool.precompute_nonces(self.params, mpk, count)
        scheme = self.feip if isinstance(mpk, FeipPublicKey) else self.febo
        return make_nonces(scheme.group, mpk, count)

    def available_feip(self, mpk) -> int:
        """Precomputed tuples currently banked for ``mpk``.

        ``available_febo`` is the same method; either takes a FEIP or a
        FEBO key.
        """
        return len(self._store(mpk))

    available_febo = available_feip

    def prefill_feip(self, mpk, count: int) -> int:
        """Bank ``count`` offline tuples for ``mpk``; returns the count.

        ``prefill_febo`` is the same method: the key's type picks the
        scheme.
        """
        if count <= 0:
            return 0
        nonces = self._nonces(mpk, count)
        self._store(mpk).push_many(nonces)
        self._count('precomputed', len(nonces))
        return len(nonces)

    prefill_febo = prefill_feip

    # -- online phase ---------------------------------------------------------
    def encrypt_feip(self, mpk: FeipPublicKey,
                     x: Sequence[int]) -> FeipCiphertext:
        """Encrypt ``x`` consuming one banked tuple (or compute on miss)."""
        nonce = self._store(mpk).pop()
        if nonce is None:
            self._count('misses')
            nonce, = make_nonces(self.feip.group, mpk, 1)
        else:
            self._count('consumed')
        return self.feip.encrypt(mpk, x, nonce=nonce)

    def encrypt_febo(self, mpk: FeboPublicKey, x: int) -> FeboCiphertext:
        """Encrypt ``x`` consuming one banked tuple (or compute on miss)."""
        nonce = self._store(mpk).pop()
        if nonce is None:
            self._count('misses')
            nonce, = make_nonces(self.febo.group, mpk, 1)
        else:
            self._count('consumed')
        return self.febo.encrypt(mpk, x, nonce=nonce)

    def encrypt_feip_columns(self, mpk, items: Sequence) -> list:
        """Encrypt many FEIP vectors or FEBO scalars under one key.

        ``encrypt_febo_values`` is the same method.  Banked tuples are
        consumed first; the remainder the store cannot cover is made as
        one :meth:`_nonces` batch (on the pool's workers when one is
        attached) and counted as misses, since it was not banked.
        """
        if isinstance(mpk, FeipPublicKey):
            scheme, encrypt = "feip", self.feip.encrypt
        else:
            scheme, encrypt = "febo", self.febo.encrypt
        with GLOBAL_TRACER.span("encrypt", scheme=scheme, n=len(items)):
            nonces = self._store(mpk).pop_many(len(items))
            self._count('consumed', len(nonces))
            missing = len(items) - len(nonces)
            if missing:
                self._count('misses', missing)
                nonces += self._nonces(mpk, missing)
            fresh = iter(nonces)
            return [encrypt(mpk, item, nonce=next(fresh)) for item in items]

    encrypt_febo_values = encrypt_feip_columns
