"""Offline/online encryption engine for the client-side hot path.

The paper's cost profile (Figures 3-5) is modular exponentiation; PR 1
attacked the server half (decryption).  This module is the client-side
twin: the classic offline/online split for DDH-style schemes.  Every
FEIP encryption spends ``1 + eta`` full-width exponentiations on values
that do not depend on the plaintext -- the nonce commitment ``g^r`` and
the masks ``h_i^r`` -- and only a *small-exponent* ``g^{x_i}`` on the
message itself.  Precomputing ``(r, g^r, h_1^r..h_eta^r)`` tuples ahead
of time therefore moves essentially the whole encryption cost off the
critical path: the online phase is one tiny comb-table walk plus one
modular multiply per element.

:class:`EncryptionEngine` owns per-public-key stores of precomputed
:class:`~repro.fe.keys.FeipNonce` / :class:`~repro.fe.keys.FeboNonce`
tuples and offers three ways to fill them:

* :meth:`prefill_feip` / :meth:`prefill_febo` -- synchronous, in-process
  (routed through an attached
  :class:`~repro.matrix.parallel.SecureComputePool` when one is
  configured, so idle workers produce material in bulk);
* :meth:`prefill_async` -- a background daemon thread tops the store up
  while the caller does other work;
* nothing at all -- :meth:`encrypt_feip` falls back to computing a
  fresh tuple on demand (counted in :attr:`misses`), so the engine is
  always correct, just slower when cold.

Tuples are produced in batches (:func:`make_feip_nonces` /
:func:`make_febo_nonces`): a batch's nonces are recoded once as signed
comb digits, and each public base gets a comb sized for that batch and
dropped with it, instead of a process-lifetime table sized for
thousands of uses.

**Nonce hygiene is the safety property.**  Reusing ``r`` across two
ciphertexts is an IND-CPA break (the ratio of the two ciphertexts
reveals ``g^{x_i - x'_i}``), so the store hands every tuple out at most
once: consumption is a single ``deque.popleft`` under a lock, atomic
under both thread and pool concurrency, and each nonce carries the
fingerprint of the public key it was built for so cross-key use raises
instead of corrupting data.  ``tests/test_engine.py`` pins both
properties.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from collections.abc import Sequence

from repro.fe.errors import CiphertextError
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


def _nonce_powers(group: SchnorrGroup, bases: Sequence[int], count: int
                  ) -> tuple[list[int], list[list[int]]]:
    """Draw ``count`` nonces ``r`` and raise every base to each of them.

    The nonces are recoded once as a :class:`RowPlan` of fixed exponents
    only -- the signed comb recoding FEIP decryption uses for
    ``ct_0^{-sk}`` -- and each base then builds one comb sized by
    :func:`~repro.mathutils.fastexp.amortized_comb_window` for exactly
    ``count`` uses, freed with the batch.  Batches too small for a comb
    (and toy groups) raise each base with one ``pow`` per nonce inside
    the plan.  Returns ``(rs, powers)`` with ``powers[b][k] ==
    bases[b] ** rs[k]``.
    """
    rs = [group.random_exponent() for _ in range(count)]
    plan = RowPlan([[] for _ in rs], group.p, order=group.q,
                   fixed_exponents=rs)
    powers = [SharedBaseMultiExp([], group.p, order=group.q, fixed_base=base)
              .eval_plan(plan) for base in bases]
    return rs, powers


def make_feip_nonces(group: SchnorrGroup, mpk: FeipPublicKey,
                     count: int) -> list[FeipNonce]:
    """Compute ``count`` offline FEIP tuples ``(r, g^r, h_i^r)`` in one batch."""
    rs, (ct0s, *masks) = _nonce_powers(group, (group.g, *mpk.h), count)
    fp = key_fingerprint(mpk)
    return [FeipNonce(r=r, ct0=ct0, masks=row, key_fp=fp)
            for r, ct0, row in zip(rs, ct0s, zip(*masks))]


def make_febo_nonces(group: SchnorrGroup, mpk: FeboPublicKey,
                     count: int) -> list[FeboNonce]:
    """Compute ``count`` offline FEBO tuples ``(r, g^r, h^r)`` in one batch."""
    rs, (cmts, masks) = _nonce_powers(group, (group.g, mpk.h), count)
    fp = key_fingerprint(mpk)
    return [FeboNonce(r=r, cmt=cmt, mask=mask, key_fp=fp)
            for r, cmt, mask in zip(rs, cmts, masks)]


class _NonceStore:
    """Thread-safe FIFO of single-use nonces.

    ``pop`` is the atomic consumption point: a tuple leaves the store
    exactly once, whichever thread wins the lock.
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
            used to produce offline material and bulk encryptions in
            parallel.
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
        self._feip_stores: dict[int, _NonceStore] = {}
        self._febo_stores: dict[int, _NonceStore] = {}
        self._stores_lock = threading.Lock()
        self._fill_threads: list[threading.Thread] = []
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
        concurrent ``_count`` (a filler thread or pooled bulk encrypt)
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
            depth = sum(len(s) for s in self._feip_stores.values()) \
                + sum(len(s) for s in self._febo_stores.values())
        return {
            "repro_engine_precomputed_total": stats["precomputed"],
            "repro_engine_consumed_total": stats["consumed"],
            "repro_engine_misses_total": stats["misses"],
            "repro_engine_nonce_store_depth": depth,
        }

    # -- stores ---------------------------------------------------------------
    def _store(self, stores: dict[int, _NonceStore], mpk) -> _NonceStore:
        fp = key_fingerprint(mpk)
        with self._stores_lock:
            store = stores.get(fp)
            if store is None:
                store = stores[fp] = _NonceStore()
            return store

    def available_feip(self, mpk: FeipPublicKey) -> int:
        """Precomputed FEIP tuples currently banked for ``mpk``."""
        return len(self._store(self._feip_stores, mpk))

    def available_febo(self, mpk: FeboPublicKey) -> int:
        """Precomputed FEBO tuples currently banked for ``mpk``."""
        return len(self._store(self._febo_stores, mpk))

    # -- offline phase --------------------------------------------------------
    def prefill_feip(self, mpk: FeipPublicKey, count: int) -> int:
        """Bank ``count`` offline FEIP tuples for ``mpk``; returns count.

        Routed through the attached pool when one is present (workers
        generate independent nonces from their own OS-seeded RNGs),
        one :func:`make_feip_nonces` batch otherwise.
        """
        if count <= 0:
            return 0
        if self.pool is not None:
            nonces, _ = self.pool.precompute_encryption(
                self.params, feip_mpk=mpk, feip_count=count)
        else:
            nonces = make_feip_nonces(self.feip.group, mpk, count)
        self._store(self._feip_stores, mpk).push_many(nonces)
        self._count('precomputed', len(nonces))
        return len(nonces)

    def prefill_febo(self, mpk: FeboPublicKey, count: int) -> int:
        """Bank ``count`` offline FEBO tuples for ``mpk``; returns count."""
        if count <= 0:
            return 0
        if self.pool is not None:
            _, nonces = self.pool.precompute_encryption(
                self.params, febo_mpk=mpk, febo_count=count)
        else:
            nonces = make_febo_nonces(self.febo.group, mpk, count)
        self._store(self._febo_stores, mpk).push_many(nonces)
        self._count('precomputed', len(nonces))
        return len(nonces)

    def prefill_async(self, mpk, count: int) -> threading.Thread:
        """Fill a store from a background daemon thread.

        Dispatches on the key type; :meth:`drain_async` joins every
        filler started this way.  The store's lock makes concurrent
        fill-while-consume safe.
        """
        fill = (self.prefill_feip if isinstance(mpk, FeipPublicKey)
                else self.prefill_febo)
        thread = threading.Thread(target=fill, args=(mpk, count), daemon=True)
        thread.start()
        self._fill_threads.append(thread)
        return thread

    def drain_async(self, timeout: float | None = None) -> None:
        """Join background fillers started by :meth:`prefill_async`."""
        threads, self._fill_threads = self._fill_threads, []
        for thread in threads:
            thread.join(timeout)

    # -- online phase ---------------------------------------------------------
    def encrypt_feip(self, mpk: FeipPublicKey,
                     x: Sequence[int]) -> FeipCiphertext:
        """Encrypt ``x`` consuming one banked tuple (or compute on miss)."""
        nonce = self._store(self._feip_stores, mpk).pop()
        if nonce is None:
            self._count('misses')
            nonce, = make_feip_nonces(self.feip.group, mpk, 1)
        else:
            self._count('consumed')
        return self.feip.encrypt(mpk, x, nonce=nonce)

    def encrypt_febo(self, mpk: FeboPublicKey, x: int) -> FeboCiphertext:
        """Encrypt ``x`` consuming one banked tuple (or compute on miss)."""
        nonce = self._store(self._febo_stores, mpk).pop()
        if nonce is None:
            self._count('misses')
            nonce, = make_febo_nonces(self.febo.group, mpk, 1)
        else:
            self._count('consumed')
        return self.febo.encrypt(mpk, x, nonce=nonce)

    # -- bulk helpers ---------------------------------------------------------
    def encrypt_feip_columns(self, mpk: FeipPublicKey,
                             columns: Sequence[Sequence[int]]
                             ) -> list[FeipCiphertext]:
        """Encrypt many vectors under one key.

        Consumes banked tuples first; when the store cannot cover the
        batch, the uncovered remainder is encrypted pool-parallel when a
        pool is attached (workers generate their own nonces), so bulk
        throughput scales with workers even without prefill, and under
        one nonce batch otherwise.
        """
        with GLOBAL_TRACER.span("encrypt", scheme="feip", n=len(columns)):
            return self._encrypt_feip_columns(mpk, columns)

    def _encrypt_feip_columns(self, mpk: FeipPublicKey,
                              columns: Sequence[Sequence[int]]
                              ) -> list[FeipCiphertext]:
        store = self._store(self._feip_stores, mpk)
        out: list[FeipCiphertext | None] = [None] * len(columns)
        remainder: list[tuple[int, Sequence[int]]] = []
        for j, column in enumerate(columns):
            nonce = store.pop()
            if nonce is None:
                remainder.append((j, column))
            else:
                self._count('consumed')
                out[j] = self.feip.encrypt(mpk, column, nonce=nonce)
        if remainder:
            # not banked material, so still misses for anyone sizing a
            # prefill -- just misses served in parallel or in one batch
            self._count('misses', len(remainder))
            if self.pool is not None:
                cts = self.pool.secure_encrypt_columns(
                    self.params, mpk, [list(col) for _, col in remainder])
            else:
                nonces = iter(make_feip_nonces(self.feip.group, mpk,
                                               len(remainder)))
                cts = [self.feip.encrypt(mpk, column, nonce=next(nonces))
                       for _, column in remainder]
            for (j, _), ct in zip(remainder, cts):
                out[j] = ct
        return out

    def encrypt_febo_values(self, mpk: FeboPublicKey,
                            values: Sequence[int]) -> list[FeboCiphertext]:
        """Encrypt many scalars under one key (pool-parallel remainder)."""
        with GLOBAL_TRACER.span("encrypt", scheme="febo", n=len(values)):
            return self._encrypt_febo_values(mpk, values)

    def _encrypt_febo_values(self, mpk: FeboPublicKey,
                             values: Sequence[int]) -> list[FeboCiphertext]:
        store = self._store(self._febo_stores, mpk)
        out: list[FeboCiphertext | None] = [None] * len(values)
        remainder: list[tuple[int, int]] = []
        for j, value in enumerate(values):
            nonce = store.pop()
            if nonce is None:
                remainder.append((j, int(value)))
            else:
                self._count('consumed')
                out[j] = self.febo.encrypt(mpk, value, nonce=nonce)
        if remainder:
            self._count('misses', len(remainder))
            if self.pool is not None:
                cts = self.pool.secure_encrypt_values(
                    self.params, mpk, [v for _, v in remainder])
            else:
                nonces = iter(make_febo_nonces(self.febo.group, mpk,
                                               len(remainder)))
                cts = [self.febo.encrypt(mpk, value, nonce=next(nonces))
                       for _, value in remainder]
            for (j, _), ct in zip(remainder, cts):
                out[j] = ct
        return out
