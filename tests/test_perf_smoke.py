"""Pool-lifecycle smoke guard.

Runs a tiny 32-bit-group secure dot product through the persistent
:class:`SecureComputePool` under a hard timeout, so regressions that
hang the pool (deadlocked configure, leaked executors, workers that
never install state) fail the tier-1 suite fast instead of wedging a
training run.
"""

import threading

import numpy as np
import pytest

from repro.matrix import parallel
from repro.matrix.secure_matrix import SecureMatrixScheme, matrix_bound_dot

#: Generous wall-clock budget: the computation itself is milliseconds,
#: so hitting this means the pool lifecycle is broken, not slow.
TIMEOUT_S = 60


def run_with_timeout(fn, timeout=TIMEOUT_S):
    """Run ``fn`` on a daemon thread; fail (not wedge) if it never returns.

    A daemon thread keeps a hung pool call from blocking the test
    process at interpreter exit, which an executor-based guard would.
    """
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"pool call did not complete within {timeout}s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture()
def dot_fixture(params, rng, solver_cache):
    scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
    msk_ip, _ = scheme.setup(column_length=2)
    x = np.array([[rng.randrange(0, 8) for _ in range(3)]
                  for _ in range(2)], dtype=object)
    y = np.array([[rng.randrange(0, 8) for _ in range(2)]], dtype=object)
    enc = scheme.pre_process_encryption(x, with_febo=False)
    keys = scheme.derive_dot_keys(msk_ip, y)
    return scheme, enc, keys, matrix_bound_dot(8, 8, 2), y @ x


def test_persistent_pool_dot_under_timeout(params, dot_fixture):
    scheme, enc, keys, bound, expected = dot_fixture
    with parallel.SecureComputePool(workers=1) as pool:
        for _ in range(3):  # reuse is the regression surface
            out = run_with_timeout(
                lambda: pool.secure_dot(params, scheme.feip_mpk,
                                        enc.require_feip(), keys, bound)
            )
            np.testing.assert_array_equal(out, expected)
        assert pool.executors_created == 1


def test_module_wrappers_share_persistent_pool(params, dot_fixture):
    """The shared pool of get_compute_pool must not build an executor
    per call."""
    scheme, enc, keys, bound, expected = dot_fixture
    parallel.shutdown_compute_pools()
    try:
        for _ in range(2):
            out = run_with_timeout(
                lambda: parallel.get_compute_pool(workers=1).secure_dot(
                    params, scheme.feip_mpk, enc.require_feip(), keys, bound
                )
            )
            np.testing.assert_array_equal(out, expected)
        pool = parallel.get_compute_pool(workers=1)
        assert pool.executors_created == 1
        assert pool.dispatches == 2
    finally:
        parallel.shutdown_compute_pools()


def test_pool_recovers_from_worker_crash(params, dot_fixture):
    """A killed worker must not wedge the persistent pool for the run."""
    import os
    import signal
    import time

    scheme, enc, keys, bound, expected = dot_fixture
    with parallel.SecureComputePool(workers=1) as pool:
        run_with_timeout(
            lambda: pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), keys, bound)
        )
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.2)
        out = run_with_timeout(
            lambda: pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), keys, bound)
        )
        np.testing.assert_array_equal(out, expected)
        assert pool.executors_created == 2


def test_pool_restarts_after_close(params, dot_fixture):
    scheme, enc, keys, bound, expected = dot_fixture
    pool = parallel.SecureComputePool(workers=1)
    try:
        run_with_timeout(
            lambda: pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), keys, bound)
        )
        pool.close()
        assert not pool.started
        out = run_with_timeout(
            lambda: pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), keys, bound)
        )
        np.testing.assert_array_equal(out, expected)
        assert pool.executors_created == 2
    finally:
        pool.close()


def test_disabled_tracer_is_near_free():
    """Instrumented hot loops must stay fast with tracing off.

    The training loop calls ``GLOBAL_TRACER.span()`` several times per
    batch; disabled, that must be one attribute check returning a
    shared no-op -- 50k calls in well under a second even on a loaded
    CI box.
    """
    import time

    from repro.obs.tracing import GLOBAL_TRACER

    assert not GLOBAL_TRACER.enabled
    recorded_before = len(GLOBAL_TRACER.spans())
    start = time.perf_counter()
    for _ in range(50_000):
        with GLOBAL_TRACER.span("noop"):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"disabled spans cost {elapsed:.3f}s per 50k"
    assert len(GLOBAL_TRACER.spans()) == recorded_before
