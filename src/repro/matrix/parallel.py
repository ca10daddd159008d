"""Secure computation dispatch: one decryption loop, two executors.

The paper reports (Figures 3d, 4d, 5d) that parallelizing the decryption
loop turns secure dot-products from ~90 minutes into ~8 seconds.  The
expensive part -- modular exponentiation plus the discrete log -- is pure
CPU work on Python ints, so we parallelize across *processes* (threads
would serialize on the GIL).

That loop is written once.  :meth:`SecureComputePool.secure_dot` and
:meth:`SecureComputePool.secure_elementwise` cut a decryption grid into
contiguous chunks (runs of FEIP columns, runs of FEBO cells), and
``_map`` runs one chunk function per chunk on one of two executors:

* **worker processes** -- a :class:`SecureComputePool` forks them once
  and reuses them for every dispatch of a training run, instead of
  paying executor startup plus key pickling on every call.
  :meth:`~SecureComputePool.configure` stamps the group parameters,
  public key, function keys and dlog bound with a sequence number and
  ships them pickled with each chunk; workers install a stamp at most
  once, and each worker's dlog-solver cache survives reconfiguration,
  so iterating with fresh keys but a stable bound never rebuilds
  baby-step tables.
* **the calling thread** -- an :class:`InlineExecutor`, which serial
  runs use.  Its ``_map`` runs the same chunk functions in the caller,
  the loop a degraded pool already falls back to, with the state built
  unpickled around the caller's solver cache.

So serial and pooled runs decrypt through identical code and recover
identical integers.

The same pool also serves the *client* side: under the ``encrypt``
configuration kind idle workers raise public bases for nonce batches
(:meth:`SecureComputePool.precompute_nonces`) that the caller's
:class:`~repro.fe.engine.EncryptionEngine` banks and encrypts with.
The caller draws each batch's nonces from a generator seeded from the
OS on every call, and :func:`nonce_blocks` hands every worker a block
of the (base, nonce) grid: a share of the bases for a FEIP key, a share
of the nonces for a FEBO key.  The workers hold no randomness.

And it serves the *authority*: under the ``febo-masks`` kind
(:meth:`SecureComputePool.febo_masks`) workers raise FEBO commitments
to the master key, one full-width ``cmt^s`` each, and return the
masks.  Its payload carries the FEBO master key, so only the
authority's own pool -- the one ``serve-authority`` forks -- is ever
configured with it.  The caller keeps the permitted-op and policy
checks, its memo of masks, and composes each key from its mask.

``serve-authority``, ``serve-train`` and ``client-upload`` size their
pools by one rule, :func:`service_workers`, each from its own measured
cutoff.

Every worker starts with the default stop signals, whatever handlers
its parent had installed when it forked, and exits on its own once the
process that forked it is gone (:func:`_init_worker`), so a SIGKILLed
pool holder -- a supervised service being restarted -- leaves no
orphans behind.  A pool built with ``pin_workers`` (the authority's)
also pins each worker to one usable CPU, round robin.

All key/ciphertext containers are frozen dataclasses of ints, so the
per-configuration pickling is cheap.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.fe.engine import assemble_nonces, nonce_powers, public_bases
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.fe.keys import (
    FeboCiphertext,
    FeboFunctionKey,
    FeboMasterKey,
    FeboNonce,
    FeboPublicKey,
    FeipCiphertext,
    FeipFunctionKey,
    FeipNonce,
    FeipPublicKey,
)
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE, SolverCache
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.obs.metrics import GLOBAL_REGISTRY

# Per-process state installed by the configuration broadcast, keyed by
# config sequence number.  A module-level dict is the standard idiom: it
# exists independently in every worker process and persists for the
# worker's lifetime.  Several configs stay warm at once because training
# steps alternate between dot and elementwise dispatches.
_WORKER_CONFIGS: dict[int, dict] = {}
_WORKER_CONFIGS_MAX = 8


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """Number of worker processes used when the caller does not choose:
    one per usable CPU but one."""
    return max(1, usable_cpus() - 1)


def service_workers(bits: int, min_bits: int) -> int | None:
    """Default pool size of a long-running service on a ``bits``-bit group.

    One worker per CPU this process may run on; None -- no pool --
    below ``min_bits``, the service's own measured crossover, and on a
    single CPU.
    """
    cpus = usable_cpus()
    if bits < min_bits or cpus < 2:
        return None
    return cpus


#: Chunks produced per worker by a ``secure_dot`` / ``secure_elementwise``
#: dispatch: enough slack for load balancing across uneven chunks, few
#: enough that the per-chunk state shipment (config blob + chunk pickle)
#: stays marginal.
CHUNKS_PER_WORKER = 2


def chunk_tasks(tasks: Sequence, n_chunks: int) -> list[tuple]:
    """Split ``tasks`` into at most ``n_chunks`` contiguous chunks.

    Every task appears in exactly one chunk and no chunk is empty, for
    any ``n_tasks``/``n_chunks`` combination (the regression tests sweep
    the awkward ones).
    """
    tasks = list(tasks)
    if not tasks:
        return []
    n_chunks = max(1, min(int(n_chunks), len(tasks)))
    per_chunk = -(-len(tasks) // n_chunks)
    return [tuple(tasks[i:i + per_chunk])
            for i in range(0, len(tasks), per_chunk)]


def nonce_blocks(n_bases: int, n_nonces: int, workers: int
                 ) -> list[tuple[slice, slice]]:
    """Cut a nonce batch's (base, nonce) grid into one block per worker.

    Each block is ``(bases, nonces)`` and its worker raises each of its
    bases to each of its nonces, on one comb per base sized for its
    nonces.  Once every worker gets at least two bases -- FEIP's ``g,
    h_1..h_eta`` -- the bases are split and every block holds the whole
    batch, so each base's comb is built once, for every nonce.  Fewer
    bases than that -- FEBO's ``g, h`` -- would leave the workers
    unevenly loaded, so the nonces are split instead and every worker
    builds every base's comb for its share.  Blocks come back in base
    order, then nonce order; every cell lies in exactly one of them.
    """
    def runs(n: int) -> list[slice]:
        return [slice(run[0], run[-1] + 1)
                for run in chunk_tasks(range(n), workers)]

    if not n_bases or not n_nonces:
        return []
    if n_bases >= 2 * workers:
        return [(bases, slice(0, n_nonces)) for bases in runs(n_bases)]
    return [(slice(0, n_bases), nonces) for nonces in runs(n_nonces)]


# -- chunk functions ----------------------------------------------------------

def _build_state(kind: str, payload: tuple, solver_cache: SolverCache,
                 feip: Feip | None = None, febo: Febo | None = None) -> dict:
    """Crypto state a configuration payload describes.

    Workers decrypt with fresh ``Feip``/``Febo`` instances; an
    :class:`InlineExecutor` passes the caller's, whose group already
    holds its fixed-base tables.  The dlog solver comes from
    ``solver_cache``, so it outlives reconfigurations that keep the
    same (group, bound) -- the per-iteration case in training.
    """
    if kind == "dot":
        params, mpk, keys, bound = payload
        feip = feip or Feip(params)
        # the keys' recoding is shared by every column this state decrypts
        return dict(feip=feip, mpk=mpk, keys=keys, plan=feip.row_plan(keys),
                    solver=solver_cache.get(feip.group, bound))
    if kind == "elementwise":
        params, mpk, bound = payload
        febo = febo or Febo(params)
        return dict(febo=febo, febo_mpk=mpk,
                    solver=solver_cache.get(febo.group, bound))
    if kind == "febo-masks":
        params, msk = payload
        return dict(febo=febo or Febo(params), febo_msk=msk)
    if kind == "encrypt":
        params, = payload
        return dict(params=params)
    raise ValueError(f"unknown pool configuration kind {kind!r}")


def _install_config(config: tuple) -> dict:
    """The crypto state a chunk function runs under.

    ``config`` is ``(seq, kind, blob)``.  An :class:`InlineExecutor`
    stamps the state it already built in the caller as ``blob``.  A
    pool pre-pickles the payload instead, so shipping it with every
    task chunk costs one bytes copy, not one traversal of the key
    material; a worker that already holds ``seq`` skips the unpickling
    and rebuild entirely.
    """
    seq, kind, blob = config
    if isinstance(blob, dict):
        return blob
    if os.environ.get("REPRO_CHAOS_WORKER_KILL") \
            and multiprocessing.parent_process() is not None:
        # chaos hook for the degradation tests: every *forked worker*
        # dies on first use (deterministically -- no racing kill
        # thread), while the parent-process fallback path, which also
        # runs this function, computes normally
        os._exit(3)
    state = _WORKER_CONFIGS.get(seq)
    if state is not None:
        return state
    state = _build_state(kind, pickle.loads(blob), GLOBAL_SOLVER_CACHE)
    while len(_WORKER_CONFIGS) >= _WORKER_CONFIGS_MAX:
        _WORKER_CONFIGS.pop(next(iter(_WORKER_CONFIGS)))
    _WORKER_CONFIGS[seq] = state
    return state


def _dot_columns(config: tuple, chunk: tuple[FeipCiphertext, ...]
                 ) -> list[list[int]]:
    """Decrypt a run of columns against every row key.

    One task per chunk means the config blob and the bound function
    cross the process boundary once per chunk, and each column
    ciphertext crosses exactly once; inside, ``decrypt_rows`` walks the
    state's row plan, recoded once per configuration, against each
    column's tables.
    """
    state = _install_config(config)
    solver = state["solver"]
    return [state["feip"].decrypt_rows(state["mpk"], column_ct,
                                       state["keys"], solver.bound,
                                       solver=solver, plan=state["plan"])
            for column_ct in chunk]


def _elementwise_cells(
    config: tuple,
    chunk: tuple[tuple[FeboFunctionKey, FeboCiphertext], ...],
) -> list[int]:
    """Decrypt a run of ``(key, ciphertext)`` cells; one dlog walk per run."""
    state = _install_config(config)
    solver = state["solver"]
    return state["febo"].decrypt_many(state["febo_mpk"], chunk,
                                      solver.bound, solver=solver)


def _febo_mask_chunk(config: tuple, chunk: tuple[int, ...]) -> list[int]:
    """Raise each commitment of a run to the FEBO master key."""
    state = _install_config(config)
    group, s = state["febo"].group, state["febo_msk"].s
    return [group.exp(cmt, s) for cmt in chunk]


def _nonce_power_chunk(config: tuple,
                       chunk: tuple[Sequence[int], Sequence[int]]
                       ) -> list[list[int]]:
    """Raise a block of a nonce batch's bases to a block of its nonces."""
    bases, rs = chunk
    return nonce_powers(_install_config(config)["params"], bases, rs)


#: seconds between a worker's checks that its parent is still alive
PARENT_POLL_S = 0.2

#: per-dispatch budget of executor rebuilds after worker crashes before
#: the dispatch degrades to the calling thread
CRASH_RETRIES = 2


def _init_worker(pin_counter) -> None:
    """Worker initializer: default stop signals, optional CPU pin,
    exit when the parent is gone.

    A worker forked after its parent took over SIGINT and SIGTERM
    (``serve-authority`` starts its pool on the first key request)
    would inherit the parent's handlers -- and, under an asyncio
    ``add_signal_handler``, the parent's wakeup fd: it would survive
    the SIGTERM a broken executor sends its survivors, and its signals
    could reach the parent's event loop as the parent's own.  So
    SIGTERM kills a worker again, and SIGINT -- which a terminal sends
    to the whole process group -- is left to the parent, which stops
    the pool itself.

    ``pin_counter`` (None: no pinning) counts the executor's workers;
    worker ``i`` takes the ``i``-th usable CPU, round robin.  Left to
    the kernel, workers woken together by one dispatch may queue on the
    same CPU, so a burst of short chunks runs no faster than on one
    worker.

    A parent killed by SIGKILL never shuts its executor down, and its
    idle workers would wait on the call queue forever, reparented to
    init.  A daemon thread notices the reparenting instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if pin_counter is not None and hasattr(os, "sched_setaffinity"):
        with pin_counter.get_lock():
            index = pin_counter.value
            pin_counter.value += 1
        cpus = sorted(os.sched_getaffinity(0))
        # a sandbox may forbid pinning; an unpinned worker still works
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    parent_pid = os.getppid()

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _run_in_caller(fn, config: tuple, tasks: Sequence) -> list:
    """Run every task in the calling thread, in order."""
    return [fn(config, task) for task in tasks]


# -- the persistent pool ------------------------------------------------------

class SecureComputePool:
    """Persistent worker pool for secure matrix computation.

    One :class:`~concurrent.futures.ProcessPoolExecutor` is created on
    first use and reused by every subsequent call; :meth:`close` (or
    interpreter exit) tears it down.  State reaches the workers through
    :meth:`configure`: the pool stamps the payload with a fresh sequence
    number and ships it alongside the next dispatch (once per task
    chunk); each worker installs it at most once per sequence number.
    """

    _seq = itertools.count(1)
    #: tracer span the secure layers open around a dispatch
    dispatch_span = "pool-dispatch"

    def __init__(self, workers: int | None = None, *,
                 pin_workers: bool = False):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or default_workers()
        #: pin each worker to its own CPU (see :func:`_init_worker`)
        self.pin_workers = pin_workers
        self._executor: ProcessPoolExecutor | None = None
        # (kind, payload) -> stamped config -- training alternates dot,
        # elementwise and encrypt dispatches (and a client may juggle
        # several public keys), so a handful of configs stay warm;
        # mirrors the worker-side _WORKER_CONFIGS_MAX cap
        self._configs: dict[tuple, tuple] = {}
        self._lock = threading.RLock()
        #: executors constructed over the pool's lifetime -- stays at 1
        #: however many secure_* calls run (asserted by the perf smoke
        #: test and the ablation bench).
        self.executors_created = 0
        self.dispatches = 0
        #: executor rebuilds forced by worker crashes (BrokenProcessPool)
        self.worker_restarts = 0
        #: dispatches that completed on the sequential in-process fallback
        self.degraded_dispatches = 0
        #: latched True by the first degraded dispatch
        self.degraded = False
        GLOBAL_REGISTRY.register_collector(
            f"pool.{id(self)}", self._obs_collect)

    @property
    def stats(self) -> dict[str, int | bool]:
        """Fault counters for the ops surface (train-status, reports).

        Copied under the pool lock so a scrape concurrent with a
        dispatch sees one consistent view (e.g. never a degraded
        dispatch without the ``degraded`` latch).
        """
        with self._lock:
            return {
                "dispatches": self.dispatches,
                "executors_created": self.executors_created,
                "worker_restarts": self.worker_restarts,
                "degraded_dispatches": self.degraded_dispatches,
                "degraded": self.degraded,
            }

    def _obs_collect(self) -> dict[str, int]:
        """Registry collector; multiple pools sum into one family."""
        stats = self.stats
        return {
            "repro_pool_dispatches_total": stats["dispatches"],
            "repro_pool_executors_created_total":
                stats["executors_created"],
            "repro_pool_worker_restarts_total": stats["worker_restarts"],
            "repro_pool_degraded_dispatches_total":
                stats["degraded_dispatches"],
            "repro_pool_degraded": int(stats["degraded"]),
            "repro_pool_workers": self.workers,
        }

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker,
                    initargs=(multiprocessing.Value("i", 0)
                              if self.pin_workers else None,))
                self.executors_created += 1
            return self._executor

    def close(self) -> None:
        """Shut the workers down; the next call transparently restarts."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._configs.clear()

    def __enter__(self) -> "SecureComputePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- configuration broadcast ----------------------------------------------
    def configure(self, kind: str, payload: tuple) -> tuple:
        """Install ``payload`` as the workers' computation state.

        Returns the stamped config (pass it to the dispatch that uses
        it, so concurrent callers on a shared pool cannot clobber each
        other).  Re-configuring with an identical (kind, payload) reuses
        the previous stamp, so repeated calls against stable keys/bounds
        skip both the pickling and the worker-side rebuild -- also when
        dot, elementwise and encrypt dispatches alternate, as every
        training step (and a multi-key client) does.
        """
        with self._lock:
            key = (kind, payload)
            cached = self._configs.get(key)
            if cached is not None:
                return cached
            config = (next(self._seq), kind, self._pack(kind, payload))
            while len(self._configs) >= _WORKER_CONFIGS_MAX:
                self._configs.pop(next(iter(self._configs)))
            self._configs[key] = config
            return config

    def _pack(self, kind: str, payload: tuple) -> bytes:
        """The stamped form of ``payload``: pickled once, shipped per chunk."""
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)

    def configure_dot(self, params: GroupParams, mpk: FeipPublicKey,
                      keys: Sequence[FeipFunctionKey], bound: int) -> tuple:
        return self.configure("dot", (params, mpk, tuple(keys), bound))

    def configure_elementwise(self, params: GroupParams, mpk: FeboPublicKey,
                              bound: int) -> tuple:
        return self.configure("elementwise", (params, mpk, bound))

    def _map(self, fn, config: tuple, tasks: Sequence) -> list:
        """Run ``fn(config, task)`` for every task on the workers, in order.

        ``executor.map`` submits every task up front, so every caller
        hands over pre-chunked tasks (column runs, cell runs, one nonce
        batch per worker) and each task travels alone (``chunksize=1``).

        A crashed worker breaks the whole executor; unlike the old
        executor-per-call code that recovered for free, a persistent
        pool must rebuild explicitly, so the dispatch is resubmitted on
        a fresh executor up to :data:`CRASH_RETRIES` times.  A pool that
        keeps breaking (a machine swapping its workers to death, a chaos
        test) then *degrades* instead of raising: the dispatch runs in
        this thread, the loop an :class:`InlineExecutor` always runs --
        identical numerics, just slower -- and the degradation is
        counted and latched in ``stats``.
        """
        with self._lock:
            self.dispatches += 1
        for _ in range(CRASH_RETRIES + 1):
            executor = self._ensure_executor()
            try:
                return list(executor.map(partial(fn, config), tasks,
                                         chunksize=1))
            except BrokenProcessPool:
                with self._lock:
                    # replace only the executor that failed: a
                    # concurrent dispatch may already have rebuilt it,
                    # and shutting the replacement down would break that
                    # dispatch's retry
                    if self._executor is executor:
                        executor.shutdown(wait=False)
                        self._executor = None
                        self.worker_restarts += 1
        with self._lock:
            self.degraded_dispatches += 1
            self.degraded = True
        return _run_in_caller(fn, config, tasks)

    # -- secure computations ---------------------------------------------------
    def secure_dot(self, params: GroupParams, mpk: FeipPublicKey,
                   columns: Sequence[FeipCiphertext],
                   keys: Sequence[FeipFunctionKey], bound: int) -> np.ndarray:
        """Decrypt every column against every row key; shape (keys, cols).

        Columns are pre-chunked so each task carries a run of columns:
        the stamped config and each column ciphertext cross the process
        boundary once per chunk, and inside a chunk
        ``Feip.decrypt_rows`` amortizes the shared-base window tables,
        the ``ct_0`` comb and the giant-step walk over all ``m`` rows.
        """
        keys = list(keys)
        config = self.configure_dot(params, mpk, keys, bound)
        z = np.empty((len(keys), len(columns)), dtype=object)
        chunks = chunk_tasks(columns, self.workers * CHUNKS_PER_WORKER)
        results = self._map(_dot_columns, config, chunks)
        for j, values in enumerate(itertools.chain.from_iterable(results)):
            z[:, j] = values
        return z

    def secure_elementwise(
        self, params: GroupParams, mpk: FeboPublicKey,
        cells: Sequence[tuple[FeboFunctionKey, FeboCiphertext]],
        shape: tuple[int, int], bound: int,
    ) -> np.ndarray:
        """Decrypt row-major ``(key, ciphertext)`` cells into a ``shape`` grid.

        Cells are pre-chunked like ``secure_dot``'s columns; inside a
        chunk ``Febo.decrypt_many`` shares one deduplicated giant-step
        walk across all of its cells.
        """
        config = self.configure_elementwise(params, mpk, bound)
        chunks = chunk_tasks(cells, self.workers * CHUNKS_PER_WORKER)
        results = self._map(_elementwise_cells, config, chunks)
        return np.array(list(itertools.chain.from_iterable(results)),
                        dtype=object).reshape(shape)

    # -- authority-side key derivation -----------------------------------------
    def febo_masks(self, params: GroupParams, msk: FeboMasterKey,
                   commitments: Sequence[int]) -> list[int]:
        """``cmt^s`` for every commitment, in order.

        One run of commitments per worker: every mask costs one
        full-width exponentiation, so equal runs balance.  The masks
        come back to the caller, the authority, which composes keys
        from them (:meth:`~repro.fe.febo.Febo.key_from_mask`);
        exponentiation is deterministic, so pooled and inline masks
        are identical.
        """
        config = self.configure("febo-masks", (params, msk))
        chunks = chunk_tasks(commitments, self.workers)
        return list(itertools.chain.from_iterable(
            self._map(_febo_mask_chunk, config, chunks)))

    # -- client-side nonce production ------------------------------------------
    def precompute_nonces(self, params: GroupParams, mpk, count: int
                          ) -> list[FeipNonce] | list[FeboNonce]:
        """``count`` offline tuples for ``mpk`` (a FEIP or FEBO key) from
        one dispatch: the pooled twin of
        :func:`~repro.fe.engine.make_nonces`.

        The nonces are drawn here, from a generator seeded from the OS
        on every call, so they are distinct with overwhelming
        probability across workers and calls (the engine's nonce-hygiene
        test pins this); :func:`nonce_blocks` then cuts the (base,
        nonce) grid into one block per worker, and the workers only
        exponentiate.
        """
        config = self.configure("encrypt", (params,))
        group = SchnorrGroup(params)
        bases = public_bases(group, mpk)
        rs = [group.random_exponent() for _ in range(count)]
        grid = nonce_blocks(len(bases), count, self.workers)
        blocks = self._map(_nonce_power_chunk, config,
                           [(bases[b], rs[n]) for b, n in grid])
        # blocks come back in grid order: nonce ranges ascend per base
        powers: list[list[int]] = [[] for _ in bases]
        for (b, _), block in zip(grid, blocks):
            for row, block_row in zip(powers[b], block):
                row.extend(block_row)
        return assemble_nonces(mpk, rs, powers)


class InlineExecutor(SecureComputePool):
    """:class:`SecureComputePool`'s dispatch, run in the calling thread.

    Serial runs decrypt through one of these: ``secure_dot`` and
    ``secure_elementwise`` chunk and decode exactly as on a pool, but
    :meth:`configure` builds the state in place (no pickling) around
    the caller's ``feip``, ``febo`` and ``solver_cache``, and ``_map``
    runs the chunk functions here -- the loop a degraded pool falls
    back to.  An authority without a pool of its own raises its FEBO
    masks through one the same way.

    It is not a worker pool: it forks nothing, so it keeps no fault
    counters and registers no metrics collector, and a trainer without
    a pool keeps ``compute_pool`` None: only its secure layers build
    one of these.
    """

    #: sizes the chunking of ``secure_dot`` / ``secure_elementwise``
    workers = 1
    dispatch_span = "decrypt-dlog"
    #: never started, so the inherited ``close`` and ``started`` hold
    _executor = None

    def __init__(self, feip: Feip, febo: Febo,
                 solver_cache: SolverCache | None = None):
        self._feip = feip
        self._febo = febo
        self._solver_cache = GLOBAL_SOLVER_CACHE if solver_cache is None \
            else solver_cache
        self._configs: dict[tuple, tuple] = {}
        self._lock = threading.RLock()

    def _pack(self, kind: str, payload: tuple) -> dict:
        return _build_state(kind, payload, self._solver_cache,
                            self._feip, self._febo)

    def _map(self, fn, config: tuple, tasks: Sequence) -> list:
        return _run_in_caller(fn, config, tasks)


# -- process-wide default pools ----------------------------------------------

_DEFAULT_POOLS: dict[int, SecureComputePool] = {}
_DEFAULT_POOLS_LOCK = threading.Lock()


def get_compute_pool(workers: int | None = None) -> SecureComputePool:
    """Process-wide persistent pool for ``workers`` worker processes.

    Successive callers asking for the same worker count share one pool
    (and therefore one set of warm processes and solver caches).
    """
    count = workers or default_workers()
    with _DEFAULT_POOLS_LOCK:
        pool = _DEFAULT_POOLS.get(count)
        if pool is None:
            pool = SecureComputePool(workers=count)
            _DEFAULT_POOLS[count] = pool
        return pool


@atexit.register
def shutdown_compute_pools() -> None:
    """Tear down every shared pool (registered atexit; callable in tests)."""
    with _DEFAULT_POOLS_LOCK:
        pools = list(_DEFAULT_POOLS.values())
        _DEFAULT_POOLS.clear()
    for pool in pools:
        pool.close()
