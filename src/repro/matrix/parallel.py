"""Secure computation dispatch: one decryption loop, run on lanes.

The paper reports (Figures 3d, 4d, 5d) that parallelizing the decryption
loop turns secure dot-products from ~90 minutes into ~8 seconds.  The
expensive part -- modular exponentiation plus the discrete log -- is pure
CPU work on Python ints, so we parallelize across *processes* (threads
would serialize on the GIL).

That loop is written once.  :meth:`SecureComputePool.secure_dot` and
:meth:`SecureComputePool.secure_elementwise` cut a decryption grid into
one task per *lane*, and ``_map`` runs one chunk function per task:

* **worker lanes** -- a :class:`SecureComputePool` holds one
  single-process executor per worker, forks them all on first use and
  reuses them for every dispatch of a training run, instead of paying
  executor startup plus key pickling on every call.  Task ``i`` of a
  dispatch goes to the lane its caller names, so a caller can send the
  same work to the same process every time.  ``secure_dot`` does: a
  FEIP column's home lane is ``ct_0 % workers`` (:func:`column_lanes`),
  so a ciphertext that returns in a later batch is decrypted by the
  worker whose column cache already holds its tables.
  :meth:`~SecureComputePool.configure` stamps the group parameters,
  public key, function keys and dlog bound with a sequence number and
  ships them pickled with each task; workers install a stamp at most
  once, and each worker's dlog-solver cache survives reconfiguration,
  so iterating with fresh keys but a stable bound never rebuilds
  baby-step tables.
* **the calling thread** -- an :class:`InlineExecutor`, which serial
  runs use.  It has one lane and routes nothing: its ``_map`` runs the
  same chunk functions in the caller, the loop a degraded pool already
  falls back to, with the state built unpickled around the caller's
  solver cache.

So serial and pooled runs decrypt through identical code and recover
identical integers; routing only picks which process decrypts a column.

The same pool also serves the *client* side: under the ``encrypt``
configuration kind idle workers raise public bases for nonce batches
(:meth:`SecureComputePool.precompute_nonces`) that the caller's
:class:`~repro.fe.engine.EncryptionEngine` banks and encrypts with.
The caller draws each batch's nonces from a generator seeded from the
OS on every call, and :func:`nonce_blocks` hands every lane a block
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
orphans behind.  A crashed worker costs only its own lane: the pool
rebuilds that lane and resubmits its tasks, while the other lanes keep
their processes and caches.  A pool built with ``pin_workers`` (the
authority's) also pins lane ``i``'s worker to the ``i``-th usable CPU.

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


def column_lanes(columns: Sequence[FeipCiphertext], lanes: int
                 ) -> list[int]:
    """The lane that decrypts each column of one ``secure_dot`` dispatch.

    A column's home lane is ``ct_0 % lanes``.  ``ct_0`` is fixed per
    ciphertext, so a column that comes back in a later batch -- every
    training sample, every epoch -- goes back to the worker whose
    column cache already holds its tables.  No lane takes more than
    ``ceil(n / lanes)`` of the dispatch's ``n`` columns: a column whose
    home is full spills to the least-loaded lane (the lowest on a tie).
    So the lanes stay balanced, and the routing keeps no state between
    dispatches.

    Columns claim their lanes in ``ct_0`` order, not in batch order, so
    when a home lane is over-subscribed the columns with the smallest
    ``ct_0`` stay home.  Which columns spill then depends on the batch's
    ciphertexts, not on its shuffle, and a column that spills tends to
    spill to the same lane again.
    """
    cap = -(-len(columns) // lanes)
    load = [0] * lanes
    routes = [0] * len(columns)
    for j in sorted(range(len(columns)), key=lambda j: columns[j].ct0):
        lane = columns[j].ct0 % lanes
        if load[lane] >= cap:
            lane = load.index(min(load))
        load[lane] += 1
        routes[j] = lane
    return routes


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
    """Decrypt a lane's columns against every row key.

    One task per lane means the config blob and the bound function
    cross the process boundary once per lane, and each column
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

#: per-dispatch budget of lane rebuilds after worker crashes before the
#: dispatch degrades to the calling thread
CRASH_RETRIES = 2


def _init_worker(cpu: int | None) -> None:
    """Worker initializer: default stop signals, optional CPU pin,
    exit when the parent is gone.

    A worker forked after its parent took over SIGINT and SIGTERM
    (``serve-authority`` starts its pool on the first key request)
    would inherit the parent's handlers: it would survive the SIGTERM
    a broken executor sends its survivors.  So SIGTERM kills a worker
    again, and SIGINT -- which a terminal sends to the whole process
    group -- is left to the parent, which stops the pool itself.

    ``cpu`` (None: no pinning) is the worker's lane: lane ``i`` takes
    the ``i``-th usable CPU, round robin.  Left to the kernel, workers
    woken together by one dispatch may queue on the same CPU, so a
    burst of short tasks runs no faster than on one worker.

    A parent killed by SIGKILL never shuts its executor down, and its
    idle workers would wait on the call queue forever, reparented to
    init.  A daemon thread notices the reparenting instead.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        # a sandbox may forbid pinning; an unpinned worker still works
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpus[cpu % len(cpus)]})
    parent_pid = os.getppid()

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


# -- the persistent pool ------------------------------------------------------

class SecureComputePool:
    """Persistent worker pool for secure matrix computation.

    The pool runs ``workers`` *lanes*: one single-process
    :class:`~concurrent.futures.ProcessPoolExecutor` each, all forked
    on first use and reused by every subsequent call; :meth:`close` (or
    interpreter exit) tears them down.  Every dispatch is one ``_map``
    that names a lane for each of its tasks: ``secure_dot`` sends each
    column to its home lane (:func:`column_lanes`), so a ciphertext
    meets the same worker -- and that worker's column cache -- every
    epoch, and the other dispatches give lane ``i`` the ``i``-th run
    of their work.  State reaches the workers through
    :meth:`configure`: the pool stamps the payload with a fresh
    sequence number and ships it alongside the next dispatch (once per
    task); each worker installs it at most once per sequence number.
    """

    _seq = itertools.count(1)
    #: tracer span the secure layers open around a dispatch
    dispatch_span = "pool-dispatch"

    def __init__(self, workers: int | None = None, *,
                 pin_workers: bool = False):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or default_workers()
        #: pin each lane's worker to its own CPU (see :func:`_init_worker`)
        self.pin_workers = pin_workers
        #: one single-process executor per lane, None until started
        self._lanes: list[ProcessPoolExecutor | None] = \
            [None] * self.workers
        # (kind, payload) -> stamped config -- training alternates dot,
        # elementwise and encrypt dispatches (and a client may juggle
        # several public keys), so a handful of configs stay warm;
        # mirrors the worker-side _WORKER_CONFIGS_MAX cap
        self._configs: dict[tuple, tuple] = {}
        self._lock = threading.RLock()
        #: lane executors constructed over the pool's lifetime -- one
        #: per lane however many secure_* calls run (asserted by the
        #: perf smoke test and the ablation bench), plus one per rebuild
        self.executors_created = 0
        self.dispatches = 0
        #: lane rebuilds forced by worker crashes (BrokenProcessPool)
        self.worker_restarts = 0
        #: dispatches that completed on the sequential in-process fallback
        self.degraded_dispatches = 0
        #: latched True by the first degraded dispatch
        self.degraded = False
        #: ``secure_dot`` columns sent to their home lane / spilled to
        #: another because their home lane was full
        self.columns_home = 0
        self.columns_spilled = 0
        # start of every _map still in flight, by dispatch token
        self._in_flight: dict[int, float] = {}
        self._tokens = itertools.count()
        GLOBAL_REGISTRY.register_collector(
            f"pool.{id(self)}", self._obs_collect)

    @property
    def stats(self) -> dict[str, int | bool]:
        """Fault and routing counters for the ops surface (train-status,
        reports).

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
                "columns_home": self.columns_home,
                "columns_spilled": self.columns_spilled,
            }

    def oldest_dispatch_age(self) -> float:
        """Seconds the oldest dispatch still in flight has run; 0 when
        idle.  A dispatch whose lanes never answer shows here as an age
        that keeps growing."""
        with self._lock:
            if not self._in_flight:
                return 0.0
            return time.monotonic() - min(self._in_flight.values())

    def _obs_collect(self) -> dict[str, int | float]:
        """Registry collector; multiple pools sum into one family."""
        stats = self.stats
        return {
            "repro_pool_dispatches_total": stats["dispatches"],
            "repro_pool_executors_created_total":
                stats["executors_created"],
            "repro_pool_worker_restarts_total": stats["worker_restarts"],
            "repro_pool_degraded_dispatches_total":
                stats["degraded_dispatches"],
            "repro_pool_columns_home_total": stats["columns_home"],
            "repro_pool_columns_spilled_total": stats["columns_spilled"],
            "repro_pool_degraded": int(stats["degraded"]),
            "repro_pool_workers": self.workers,
            "repro_pool_oldest_dispatch_age_seconds":
                self.oldest_dispatch_age(),
        }

    # -- lifecycle -----------------------------------------------------------
    @property
    def started(self) -> bool:
        return any(lane is not None for lane in self._lanes)

    def worker_pids(self) -> list[int]:
        """Pids of the lanes' worker processes, in lane order; empty
        before first use and after :meth:`close`."""
        with self._lock:
            return [pid for lane in self._lanes if lane is not None
                    for pid in lane._processes]

    def _start_lanes(self) -> list[ProcessPoolExecutor]:
        """Every lane's executor, starting the lanes that have none.

        Each new lane forks its worker here, under the pool lock: two
        lanes forking from concurrent dispatches could each leak a pipe
        end into the other's worker, and a worker holding another
        lane's process sentinel would hide that lane's next crash.  The
        ``fork`` context is named, so a process-wide start method
        (``forkserver`` is Python 3.14's Linux default) cannot turn a
        lane's first dispatch into a server round trip and a re-import.
        """
        with self._lock:
            for index, lane in enumerate(self._lanes):
                if lane is None:
                    lane = ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_init_worker,
                        initargs=(index if self.pin_workers else None,))
                    # a first task forks the lane's worker now; its
                    # result is not needed, and a worker that dies
                    # fails the lane's next task, which _map handles
                    lane.submit(os.getpid)
                    self._lanes[index] = lane
                    self.executors_created += 1
            return list(self._lanes)

    def _drop_lanes(self, broken: set[int],
                    executors: list[ProcessPoolExecutor]) -> None:
        """Shut down the lanes whose worker died; the next
        :meth:`_start_lanes` rebuilds them."""
        with self._lock:
            for index in broken:
                # drop only the executor that failed: a concurrent
                # dispatch may already have rebuilt the lane, and
                # shutting the replacement down would break its retry
                if self._lanes[index] is executors[index]:
                    executors[index].shutdown(wait=False)
                    self._lanes[index] = None
                    self.worker_restarts += 1

    def close(self) -> None:
        """Shut the workers down; the next call transparently restarts."""
        with self._lock:
            for index, lane in enumerate(self._lanes):
                if lane is not None:
                    lane.shutdown(wait=True)
                    self._lanes[index] = None
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
        """The stamped form of ``payload``: pickled once, shipped per task."""
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)

    def configure_dot(self, params: GroupParams, mpk: FeipPublicKey,
                      keys: Sequence[FeipFunctionKey], bound: int) -> tuple:
        return self.configure("dot", (params, mpk, tuple(keys), bound))

    def configure_elementwise(self, params: GroupParams, mpk: FeboPublicKey,
                              bound: int) -> tuple:
        return self.configure("elementwise", (params, mpk, bound))

    def _map(self, fn, config: tuple, tasks: Sequence,
             lanes: Sequence[int] | None = None) -> list:
        """Run ``fn(config, task)`` for every task, task ``i`` on lane
        ``lanes[i]`` (by default lane ``i``); results in task order.

        Every task is submitted before any result is awaited, so the
        lanes run in parallel.  A crashed worker breaks only its own
        lane: the pool rebuilds the lanes that broke and resubmits just
        their tasks, up to :data:`CRASH_RETRIES` times.  A lane that
        keeps breaking (a machine swapping its workers to death, a
        chaos test) then *degrades* the dispatch instead of raising:
        the tasks still unanswered run in this thread, the loop an
        :class:`InlineExecutor` always runs -- identical numerics, just
        slower -- and the degradation is counted and latched in
        ``stats``.
        """
        tasks = list(tasks)
        lanes = range(len(tasks)) if lanes is None else lanes
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        with self._lock:
            self.dispatches += 1
            token = next(self._tokens)
            self._in_flight[token] = time.monotonic()
        try:
            for _ in range(CRASH_RETRIES + 1):
                pending = self._run_on_lanes(fn, config, tasks, lanes,
                                             pending, results)
                if not pending:
                    return results
            with self._lock:
                self.degraded_dispatches += 1
                self.degraded = True
            for i in pending:
                results[i] = fn(config, tasks[i])
            return results
        finally:
            with self._lock:
                del self._in_flight[token]

    def _run_on_lanes(self, fn, config: tuple, tasks: list,
                      lanes: Sequence[int], pending: list[int],
                      results: list) -> list[int]:
        """Submit the ``pending`` tasks to their lanes and store their
        results; returns the tasks whose lane broke, after dropping
        those lanes so the next round rebuilds them."""
        executors = self._start_lanes()
        failed, futures = [], []
        try:
            for i in pending:
                try:
                    futures.append((i, executors[lanes[i]].submit(
                        fn, config, tasks[i])))
                except BrokenProcessPool:
                    failed.append(i)
            for i, future in futures:
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    failed.append(i)
        finally:
            # a task that raised: drop the tasks queued behind it
            for _, future in futures:
                future.cancel()
        self._drop_lanes({lanes[i] for i in failed}, executors)
        return sorted(failed)

    def _column_runs(self, columns: Sequence[FeipCiphertext]
                     ) -> list[list[int]]:
        """Indices of the columns each lane decrypts (see
        :func:`column_lanes`), counting home and spilled columns."""
        routes = column_lanes(columns, self.workers)
        runs: list[list[int]] = [[] for _ in range(self.workers)]
        for j, lane in enumerate(routes):
            runs[lane].append(j)
        home = sum(lane == column.ct0 % self.workers
                   for lane, column in zip(routes, columns))
        with self._lock:
            self.columns_home += home
            self.columns_spilled += len(columns) - home
        return runs

    # -- secure computations ---------------------------------------------------
    def secure_dot(self, params: GroupParams, mpk: FeipPublicKey,
                   columns: Sequence[FeipCiphertext],
                   keys: Sequence[FeipFunctionKey], bound: int) -> np.ndarray:
        """Decrypt every column against every row key; shape (keys, cols).

        Each lane gets one task holding its columns: the stamped config
        and each column ciphertext cross the process boundary once, and
        inside the task ``Feip.decrypt_rows`` amortizes the shared-base
        window tables, the ``ct_0`` comb and the giant-step walk over
        all ``m`` rows.
        """
        keys = list(keys)
        config = self.configure_dot(params, mpk, keys, bound)
        runs = self._column_runs(columns)
        lanes = [lane for lane, run in enumerate(runs) if run]
        results = self._map(
            _dot_columns, config,
            [tuple(columns[j] for j in runs[lane]) for lane in lanes], lanes)
        z = np.empty((len(keys), len(columns)), dtype=object)
        for lane, values in zip(lanes, results):
            for j, column in zip(runs[lane], values):
                z[:, j] = column
        return z

    def secure_elementwise(
        self, params: GroupParams, mpk: FeboPublicKey,
        cells: Sequence[tuple[FeboFunctionKey, FeboCiphertext]],
        shape: tuple[int, int], bound: int,
    ) -> np.ndarray:
        """Decrypt row-major ``(key, ciphertext)`` cells into a ``shape`` grid.

        Lane ``i`` takes the ``i``-th run of cells; inside a run
        ``Febo.decrypt_many`` shares one deduplicated giant-step walk
        across all of its cells.
        """
        config = self.configure_elementwise(params, mpk, bound)
        chunks = chunk_tasks(cells, self.workers)
        results = self._map(_elementwise_cells, config, chunks)
        return np.array(list(itertools.chain.from_iterable(results)),
                        dtype=object).reshape(shape)

    # -- authority-side key derivation -----------------------------------------
    def febo_masks(self, params: GroupParams, msk: FeboMasterKey,
                   commitments: Sequence[int]) -> list[int]:
        """``cmt^s`` for every commitment, in order.

        One run of commitments per lane: every mask costs one
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
        nonce) grid into one block per lane, and the workers only
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
    back to.  It has one lane and routes nothing: every column of a
    ``secure_dot`` lands in its one task.  An authority without a pool
    of its own raises its FEBO masks through one the same way.

    It is not a worker pool: it forks nothing, so it keeps no fault
    or routing counters and registers no metrics collector, and a
    trainer without a pool keeps ``compute_pool`` None: only its secure
    layers build one of these.
    """

    #: one lane: ``secure_dot`` / ``secure_elementwise`` make one task
    workers = 1
    dispatch_span = "decrypt-dlog"
    #: never started, so the inherited ``close`` and ``started`` hold
    _lanes = ()

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

    def _map(self, fn, config: tuple, tasks: Sequence,
             lanes: Sequence[int] | None = None) -> list:
        return [fn(config, task) for task in tasks]

    def _column_runs(self, columns: Sequence[FeipCiphertext]
                     ) -> list[list[int]]:
        return [range(len(columns))]


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
