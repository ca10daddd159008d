"""Tests for the process-parallel secure computation path."""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.fe.keys import FeipCiphertext
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE
from repro.mathutils.fastexp import GLOBAL_CHAIN_CACHE, GLOBAL_COLUMN_CACHE
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import (
    CRASH_RETRIES,
    InlineExecutor,
    SecureComputePool,
    chunk_tasks,
    column_lanes,
    default_workers,
    get_compute_pool,
    nonce_blocks,
)
from repro.matrix.secure_matrix import (
    SecureMatrixScheme,
    matrix_bound_dot,
    matrix_bound_elementwise,
)
from repro.obs.metrics import GLOBAL_REGISTRY


def random_matrix(rng, rows, cols, lo=-15, hi=15):
    return np.array(
        [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    )


def test_default_workers_positive():
    assert default_workers() >= 1


def test_default_workers_count_only_usable_cpus(monkeypatch):
    """Pools sized by default fork one worker per CPU in the affinity
    mask but one, whatever the host's CPU count; pools fork on first
    use, so building them here starts no process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert default_workers() == 2
    assert SecureComputePool().workers == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert default_workers() == 1


def _echo_task(config, task):
    return task


class TestChunking:
    """Every task must land in exactly one chunk, for any shape."""

    @pytest.mark.parametrize("n_tasks", [0, 1, 2, 3, 7, 8, 13, 64, 101])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 5, 8, 100])
    def test_chunk_tasks_covers_all_tasks(self, n_tasks, n_chunks):
        tasks = list(range(n_tasks))
        chunks = chunk_tasks(tasks, n_chunks)
        assert [t for chunk in chunks for t in chunk] == tasks
        assert all(chunks), "no chunk may be empty"
        assert len(chunks) <= max(1, min(n_chunks, n_tasks) or 1)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 16, 31])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_nonce_chunks_cover_count(self, count, workers):
        """Fewer, as many and more bases than workers: every (base,
        nonce) cell of a ``count``-nonce batch lands in exactly one
        block, blocks are non-empty, and there is at most one per
        worker."""
        for n_bases in sorted({1, 2, workers, 2 * workers - 1,
                               2 * workers, 65}):
            blocks = nonce_blocks(n_bases, count, workers)
            cells = [(b, n) for bases, nonces in blocks
                     for b in range(n_bases)[bases]
                     for n in range(count)[nonces]]
            assert sorted(cells) == [(b, n) for b in range(n_bases)
                                     for n in range(count)]
            assert len(cells) == len(set(cells))
            assert 1 <= len(blocks) <= workers
            # one axis is split, so each block's combs serve its whole run
            base_runs = {bases.indices(n_bases) for bases, _ in blocks}
            nonce_runs = {nonces.indices(count) for _, nonces in blocks}
            assert len(base_runs) == 1 or len(nonce_runs) == 1
            if n_bases >= 2 * workers:
                assert nonce_runs == {(0, count, 1)}

    @pytest.mark.parametrize("n_tasks,workers",
                             [(0, 4), (1, 4), (3, 8), (5, 2), (17, 4)])
    def test_map_chunksize_always_positive(self, n_tasks, workers,
                                           monkeypatch):
        """Every task runs once, on its lane: callers pre-chunk, so
        _map must submit each task on its own, to the lane named for
        it, for any task and worker count, and return the results in
        task order.  Fake lanes record what _map submits, without
        forking workers."""
        pool = SecureComputePool(workers=workers)
        submitted = []

        class FakeLane:
            def __init__(self, index):
                self.index = index

            def submit(self, fn, config, task):
                submitted.append((self.index, task))
                future = Future()
                future.set_result(fn(config, task))
                return future

        fake_lanes = [FakeLane(i) for i in range(workers)]
        monkeypatch.setattr(pool, "_start_lanes", lambda: fake_lanes)
        tasks = list(range(n_tasks))
        lanes = [(workers - 1 - i) % workers for i in tasks]
        out = pool._map(_echo_task, ("config",), tasks, lanes)
        assert out == tasks
        assert sorted(submitted) == sorted(zip(lanes, tasks))
        # by default task i goes to lane i
        submitted.clear()
        assert pool._map(_echo_task, ("config",), tasks[:workers]) == \
            tasks[:workers]
        assert submitted == [(i, i) for i in tasks[:workers]]

    def test_pooled_dot_awkward_column_counts(self, params, rng,
                                              solver_cache):
        """Column counts that do not divide the chunk count must still
        decrypt every column (the pre-chunked secure_dot dispatch)."""
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=2)
        y = random_matrix(rng, 3, 2)
        keys = scheme.derive_dot_keys(msk_ip, y)
        bound = matrix_bound_dot(15, 15, 2)
        with SecureComputePool(workers=2) as pool:
            for cols in (1, 3, 5, 9):
                x = random_matrix(rng, 2, cols)
                enc = scheme.pre_process_encryption(x, with_febo=False)
                out = pool.secure_dot(params, scheme.feip_mpk,
                                      enc.require_feip(), keys, bound)
                np.testing.assert_array_equal(out, y @ x)


def _columns(rng, n, home=None, workers=2):
    """``n`` stand-in FEIP columns; with ``home``, every ``ct_0`` has
    that home lane."""
    columns = []
    while len(columns) < n:
        ct0 = rng.getrandbits(64)
        if home is None or ct0 % workers == home:
            columns.append(FeipCiphertext(ct0, ()))
    return columns


class TestColumnRouting:
    """``secure_dot`` sends each column to its home lane ``ct_0 %
    workers``, spilling only when that lane is full."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 16, 32, 33])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("home", [None, 0], ids=["mixed", "one-home"])
    def test_every_column_in_exactly_one_lane_within_the_cap(
            self, n, workers, home):
        columns = _columns(random.Random(n * workers), n, home, workers)
        pool = SecureComputePool(workers=workers)  # never started
        runs = pool._column_runs(columns)
        assert len(runs) == workers
        assert sorted(j for run in runs for j in run) == list(range(n))
        assert max(map(len, runs)) <= -(-n // workers)
        stats = pool.stats
        assert stats["columns_home"] + stats["columns_spilled"] == n
        assert stats["columns_home"] == sum(
            j in runs[column.ct0 % workers]
            for j, column in enumerate(columns))
        assert not pool.started

    def test_a_column_keeps_its_lane_across_shuffled_dispatches(self):
        """Columns claim lanes in ``ct_0`` order: one whose home lane
        still has room then goes home, so it meets the same lane in
        every dispatch where it does."""
        rng = random.Random(5)
        columns = _columns(rng, 64)
        workers, batch = 2, 32
        lanes: list[dict] = []
        for _ in range(2):
            order = rng.sample(columns, batch)
            routes = dict(zip(order, column_lanes(order, workers)))
            load, homed = [0] * workers, {}
            for column in sorted(order, key=lambda column: column.ct0):
                lane = routes[column]
                if load[column.ct0 % workers] < -(-batch // workers):
                    assert lane == column.ct0 % workers
                    homed[column] = lane
                load[lane] += 1
            lanes.append(homed)
        both = lanes[0].keys() & lanes[1].keys()
        assert len(both) >= batch // 4
        assert all(lanes[0][column] == lanes[1][column] for column in both)

    def test_the_columns_that_spill_do_not_depend_on_the_shuffle(self):
        """All columns share one home lane: the half with the smallest
        ``ct_0`` stays there, in any batch order."""
        columns = _columns(random.Random(7), 10, home=1)
        expected = column_lanes(columns, 2)
        assert sorted(expected) == [0] * 5 + [1] * 5
        smallest = sorted(columns, key=lambda column: column.ct0)[:5]
        assert {column for column, lane in zip(columns, expected)
                if lane == 1} == set(smallest)
        rng = random.Random(8)
        for _ in range(5):
            order = rng.sample(columns, len(columns))
            routes = dict(zip(order, column_lanes(order, 2)))
            assert [routes[column] for column in columns] == expected


class TestParallelMatchesSerial:
    def test_dot(self, params, rng, solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=3)
        x = random_matrix(rng, 3, 8)
        y = random_matrix(rng, 4, 3)
        enc = scheme.pre_process_encryption(x, with_febo=False)
        keys = scheme.derive_dot_keys(msk_ip, y)
        bound = matrix_bound_dot(15, 15, 3)
        serial = scheme.secure_dot(enc, keys, bound)
        parallel = get_compute_pool(workers=2).secure_dot(
            params, scheme.feip_mpk, enc.require_feip(), keys, bound)
        np.testing.assert_array_equal(parallel, serial)

    def test_elementwise(self, params, rng, solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        _, msk_bo = scheme.setup(column_length=3)
        x = random_matrix(rng, 3, 5)
        y = random_matrix(rng, 3, 5)
        enc = scheme.pre_process_encryption(x, with_feip=False)
        keys = scheme.derive_elementwise_keys(msk_bo, "*", y, enc.commitments())
        bound = matrix_bound_elementwise("*", 15, 15)
        serial = scheme.secure_elementwise(enc, keys, bound)
        cells = [(key, ct) for key_row, ct_row in zip(keys, enc.require_febo())
                 for key, ct in zip(key_row, ct_row)]
        parallel = get_compute_pool(workers=2).secure_elementwise(
            params, scheme.febo_mpk, cells, enc.shape, bound)
        np.testing.assert_array_equal(parallel, serial)

    def test_convolution(self, rng, plain_convolve):
        # scale 1: the client encrypts the integer pixels unchanged
        authority = TrustedAuthority(
            CryptoNNConfig(scale=1, max_abs_feature=8.0),
            rng=random.Random(0))
        img = np.array([[[rng.randrange(0, 8) for _ in range(4)]
                         for _ in range(4)]], dtype=object)
        kernels = [np.array([[rng.randrange(-2, 3) for _ in range(2)]
                             for _ in range(2)], dtype=object)
                   for _ in range(2)]
        enc = Client(authority).encrypt_images(
            img[np.newaxis].astype(np.float64), np.zeros(1, dtype=int),
            num_classes=2, filter_size=2, stride=2, padding=0)
        windows = enc.images[0].windows
        keys = authority.derive_feip_keys(
            [[int(v) for v in k.ravel()] for k in kernels])
        parallel = get_compute_pool(workers=2).secure_dot(
            authority.params, authority.feip_public_key(4), windows.windows,
            keys, 4 * 8 * 2 + 1,
        ).reshape(len(keys), *windows.out_shape)
        for f, kernel in enumerate(kernels):
            np.testing.assert_array_equal(parallel[f],
                                          plain_convolve(img, kernel, 2, 0))

    def test_febo_keys(self):
        params = GroupParams.predefined(64)
        febo = Febo(params, rng=random.Random(3))
        _, msk = febo.setup()
        requests = [(febo.group.gexp(r), op, y)
                    for r in (5, 11, 2**40 + 7)
                    for op, y in (("+", 7), ("-", -3), ("*", 5), ("/", 9))]
        commitments = [cmt for cmt, _, _ in requests]
        inline = InlineExecutor(Feip(params), febo).febo_masks(
            params, msk, commitments)
        with SecureComputePool(workers=2) as pool:
            pooled = pool.febo_masks(params, msk, commitments)
            assert pool.stats["dispatches"] == 1
        assert pooled == inline
        assert [febo.key_from_mask(mask, *request)
                for mask, request in zip(pooled, requests)] == \
            [febo.key_derive(msk, *request) for request in requests]

    def test_single_worker_works(self, params, rng, solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=2)
        x = random_matrix(rng, 2, 3)
        y = random_matrix(rng, 2, 2)
        enc = scheme.pre_process_encryption(x, with_febo=False)
        keys = scheme.derive_dot_keys(msk_ip, y)
        bound = matrix_bound_dot(15, 15, 2)
        out = get_compute_pool(workers=1).secure_dot(
            params, scheme.feip_mpk, enc.require_feip(), keys, bound)
        np.testing.assert_array_equal(out, y @ x)


@pytest.mark.timeout_guard(120)
class TestPoolDegradation:
    """Graceful degradation: a pool whose workers keep dying must finish
    the dispatch sequentially in-process with identical numerics.

    ``REPRO_CHAOS_WORKER_KILL`` makes every *forked worker* exit with
    code 3 the moment it unpickles its config (the hook lives in
    ``_install_config`` and only fires when ``parent_process()`` is not
    None), so every executor the pool builds breaks deterministically
    while the parent's own fallback path computes normally.
    """

    def _dot_setup(self, params, rng, solver_cache):
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        msk_ip, _ = scheme.setup(column_length=2)
        x = random_matrix(rng, 2, 4)
        y = random_matrix(rng, 3, 2)
        enc = scheme.pre_process_encryption(x, with_febo=False)
        keys = scheme.derive_dot_keys(msk_ip, y)
        bound = matrix_bound_dot(15, 15, 2)
        return scheme, enc, keys, bound, y @ x

    def test_repeated_worker_kills_fall_back_to_sequential(
            self, params, rng, solver_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_WORKER_KILL", "1")
        scheme, enc, keys, bound, expected = self._dot_setup(
            params, rng, solver_cache)
        with SecureComputePool(workers=2) as pool:
            out = pool.secure_dot(params, scheme.feip_mpk,
                                  enc.require_feip(), keys, bound)
            np.testing.assert_array_equal(out, expected)
            stats = pool.stats
        # both lanes broke on every attempt (the first + CRASH_RETRIES
        # rebuilds), and each broken lane was replaced
        assert stats["worker_restarts"] == (CRASH_RETRIES + 1) * 2
        assert stats["degraded_dispatches"] == 1
        assert stats["degraded"] is True
        assert stats["dispatches"] == 1

    def test_degraded_pool_keeps_serving_identical_numerics(
            self, params, rng, solver_cache, monkeypatch):
        """Later dispatches on an already-degraded pool still succeed,
        and the degraded flag stays latched while the per-dispatch
        counter keeps counting."""
        monkeypatch.setenv("REPRO_CHAOS_WORKER_KILL", "1")
        scheme, enc, keys, bound, expected = self._dot_setup(
            params, rng, solver_cache)
        with SecureComputePool(workers=2) as pool:
            first = pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), keys, bound)
            second = pool.secure_dot(params, scheme.feip_mpk,
                                     enc.require_feip(), keys, bound)
            np.testing.assert_array_equal(first, expected)
            np.testing.assert_array_equal(second, expected)
            stats = pool.stats
        assert stats["degraded_dispatches"] == 2
        assert stats["degraded"] is True
        assert stats["dispatches"] == 2


def _sleep_task(config, seconds):
    time.sleep(seconds)
    return seconds


def _wait_dead(pid, timeout=5.0):
    """Wait until ``pid`` has exited (gone, or a zombie)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] in "ZX":
                    return
        except FileNotFoundError:
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still runs after {timeout} s")


@pytest.mark.timeout_guard(120)
class TestLanes:
    """One single-process executor per worker: columns meet the same
    worker every epoch, and a crash costs one lane."""

    def _feip_setup(self, bits, rows, n_columns):
        feip = Feip(GroupParams.predefined(bits), rng=random.Random(bits))
        mpk, msk = feip.setup(4)
        rng = random.Random(rows)
        keys = [feip.key_derive(msk, [rng.randint(-9, 9) for _ in range(4)])
                for _ in range(rows)]
        columns = [feip.encrypt(mpk, [rng.randint(0, 9) for _ in range(4)])
                   for _ in range(n_columns)]
        return feip, mpk, keys, columns, 4 * 9 * 9 + 1

    def test_shuffled_epochs_match_inline(self):
        """3 shuffled epochs of 2 batches, then one in-order pass (the
        evaluation), on 16-row columns that keep their tables in each
        worker's column cache: every grid equals the inline one."""
        feip, mpk, keys, columns, bound = self._feip_setup(64, 16, 12)
        params = feip.group.params
        inline = InlineExecutor(feip, Febo(params))
        order = np.random.default_rng(0)
        batches = [[columns[j] for j in perm[i:i + 6]]
                   for perm in (order.permutation(12) for _ in range(3))
                   for i in (0, 6)] + [columns]
        with SecureComputePool(workers=2) as pool:
            for batch in batches:
                assert np.array_equal(
                    pool.secure_dot(params, mpk, batch, keys, bound),
                    inline.secure_dot(params, mpk, batch, keys, bound))
            stats = pool.stats
            assert pool.executors_created == 2
            assert len(pool.worker_pids()) == 2
        assert stats["dispatches"] == len(batches)
        assert stats["columns_home"] + stats["columns_spilled"] == \
            sum(map(len, batches))
        assert stats["worker_restarts"] == 0 and not stats["degraded"]

    def test_a_killed_worker_rebuilds_its_lane_only(self):
        feip, mpk, keys, columns, bound = self._feip_setup(32, 3, 8)
        params = feip.group.params
        expected = InlineExecutor(feip, Febo(params)).secure_dot(
            params, mpk, columns, keys, bound)
        with SecureComputePool(workers=2) as pool:
            assert np.array_equal(
                pool.secure_dot(params, mpk, columns, keys, bound), expected)
            before = pool.worker_pids()
            os.kill(before[0], signal.SIGKILL)
            _wait_dead(before[0])
            assert np.array_equal(
                pool.secure_dot(params, mpk, columns, keys, bound), expected)
            after = pool.worker_pids()
            stats = pool.stats
        assert stats["worker_restarts"] == 1
        assert after[1] == before[1] and after[0] != before[0]
        assert pool.executors_created == 3
        assert stats["degraded_dispatches"] == 0

    def test_oldest_dispatch_age_gauge(self):
        """A scrape from another thread sees a dispatch in flight as a
        positive age, and 0 once it returns."""
        def age():
            return GLOBAL_REGISTRY.snapshot()["gauges"][
                "repro_pool_oldest_dispatch_age_seconds"]

        with SecureComputePool(workers=2) as pool:
            assert age() == 0
            runner = threading.Thread(
                target=pool._map, args=(_sleep_task, ("config",), [1, 1]))
            runner.start()
            deadline = time.monotonic() + 30
            while age() < 0.2 and time.monotonic() < deadline:
                time.sleep(0.01)
            seen, running = age(), runner.is_alive()
            runner.join(30)
            assert not runner.is_alive()
            assert seen >= 0.2 and running
            assert age() == 0
            assert pool.oldest_dispatch_age() == 0


# a process that starts a pinned pool, reports it is ready, then idles
_POOL_HOLDER = """
import time
from repro.fe.febo import Febo
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import SecureComputePool

params = GroupParams.predefined(32)
febo = Febo(params)
_, msk = febo.setup()
pool = SecureComputePool(workers=2, pin_workers=True)
pool.febo_masks(params, msk, [febo.group.gexp(5)] * 4)
print("ready", flush=True)
time.sleep(60)
"""


@pytest.mark.timeout_guard(60)
def test_workers_pin_apart_and_exit_when_pool_holder_is_killed(
        repro_env, live_processes):
    holder = subprocess.Popen([sys.executable, "-c", _POOL_HOLDER],
                              env=repro_env, stdout=subprocess.PIPE,
                              text=True)
    try:
        assert holder.stdout.readline().strip() == "ready"
        workers = {pid for pid, ppid in live_processes().items()
                   if ppid == holder.pid}
        assert len(workers) == 2
        cpus = os.sched_getaffinity(0)
        pinned = [os.sched_getaffinity(pid) for pid in workers]
        assert all(len(cpu) == 1 and cpu <= cpus for cpu in pinned)
        assert len(set().union(*pinned)) == min(2, len(cpus))
    finally:
        os.kill(holder.pid, signal.SIGKILL)
        holder.wait()
        holder.stdout.close()
    deadline = time.monotonic() + 5
    while workers & live_processes().keys() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not workers & live_processes().keys()


def test_workers_are_unpinned_by_default():
    params = GroupParams.predefined(32)
    _, msk = Febo(params).setup()
    with SecureComputePool(workers=2) as pool:
        pool.febo_masks(params, msk, [params.g] * 2)
        workers = pool.worker_pids()
        assert len(workers) == 2 and all(
            os.sched_getaffinity(pid) == os.sched_getaffinity(0)
            for pid in workers)


# a process that asks for forkserver children, then reports its pid and
# the parent pid its pool's worker sees
_FORKSERVER_HOLDER = """
import multiprocessing
import os
multiprocessing.set_start_method("forkserver", force=True)
from repro.matrix.parallel import SecureComputePool

pool = SecureComputePool(1)
try:
    print(os.getpid(), pool._start_lanes()[0].submit(os.getppid).result())
finally:
    pool.close()
"""


@pytest.mark.timeout_guard(60)
def test_lanes_fork_whatever_the_default_start_method(repro_env):
    """A lane's worker is a child of the pool's holder even when the
    process asks for another start method: lanes always fork."""
    done = subprocess.run([sys.executable, "-c", _FORKSERVER_HOLDER],
                          env=repro_env, capture_output=True, text=True,
                          timeout=50, check=True)
    holder, worker_parent = done.stdout.split()
    assert worker_parent == holder


#: seconds a dispatch forked under a held lock may take before the
#: test calls its worker wedged
FORK_DISPATCH_DEADLINE_S = 10


@pytest.mark.timeout_guard(90)
@pytest.mark.parametrize("cache, bits, rows", [
    (GLOBAL_SOLVER_CACHE, 32, 3),   # every dot dispatch builds a solver
    (GLOBAL_CHAIN_CACHE, 64, 4),    # few-row columns walk chains
    (GLOBAL_COLUMN_CACHE, 64, 16),  # comb-mode columns keep tables
], ids=["solver-cache", "chain-cache", "column-cache"])
def test_a_cache_lock_held_at_fork_time_does_not_wedge_a_worker(
        cache, bits, rows):
    """A thread holds a process-wide cache lock while the pool forks its
    worker (a scrape's collector does, for a moment), then lets go.  The
    child inherits the lock as it was at the fork; unless it starts with
    a fresh one, the worker's first decryption waits on it forever."""
    feip = Feip(GroupParams.predefined(bits), rng=random.Random(bits))
    mpk, msk = feip.setup(4)
    rng = random.Random(rows)
    keys = [feip.key_derive(msk, [rng.randint(-9, 9) for _ in range(4)])
            for _ in range(rows)]
    xs = [[rng.randint(0, 9) for _ in range(4)] for _ in range(2)]
    cts = [feip.encrypt(mpk, x) for x in xs]
    expected = np.array([[sum(a * b for a, b in zip(x, key.y)) for x in xs]
                         for key in keys], dtype=object)
    pool = SecureComputePool(1)
    held, forked = threading.Event(), threading.Event()

    def hold():
        with cache._lock:
            held.set()
            forked.wait(FORK_DISPATCH_DEADLINE_S)

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait()
    result = {}

    def dispatch():
        result["z"] = pool.secure_dot(feip.group.params, mpk, cts, keys, 1000)

    runner = threading.Thread(target=dispatch, daemon=True)
    runner.start()
    deadline = time.monotonic() + FORK_DISPATCH_DEADLINE_S
    while time.monotonic() < deadline and not pool.worker_pids():
        time.sleep(0.01)
    forked.set()
    holder.join()
    runner.join(FORK_DISPATCH_DEADLINE_S)
    wedged = runner.is_alive()
    try:
        if wedged:
            # kill the wedged worker: the dispatch rebuilds the pool and
            # finishes, so close() below cannot hang
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            runner.join(60)
    finally:
        pool.close()
    assert not wedged, (
        f"a worker forked while another thread held {type(cache).__name__}"
        f"'s lock had not finished its dispatch after "
        f"{FORK_DISPATCH_DEADLINE_S} s")
    assert np.array_equal(result["z"], expected)
