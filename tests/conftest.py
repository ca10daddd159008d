"""Shared fixtures.

Crypto tests run on the 32-bit toy group: the code path is identical to
the paper's 256-bit setting (only the group size is substituted) and the
suite stays fast.  A handful of tests exercise larger groups explicitly.

The ``timeout_guard`` marker arms a SIGALRM watchdog around a test so
socket/service tests can never hang the suite: if the deadline passes,
the test fails with a TimeoutError instead of blocking forever.
"""

from __future__ import annotations

import os
import pathlib
import random
import signal

import numpy as np
import pytest

import repro
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.mathutils.dlog import SolverCache
from repro.mathutils.fastexp import GLOBAL_CHAIN_CACHE, GLOBAL_COLUMN_CACHE
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.obs.metrics import GLOBAL_REGISTRY

TEST_BITS = 32


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout_guard(seconds): fail the test if it runs longer than "
        "``seconds`` (SIGALRM watchdog; guards socket tests against hangs)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout_guard")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = int(marker.args[0]) if marker.args else 60

    def _expired(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded its {seconds}s timeout guard")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def params() -> GroupParams:
    return GroupParams.predefined(TEST_BITS)


@pytest.fixture(scope="session")
def solver_cache() -> SolverCache:
    return SolverCache()


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture()
def np_rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def group(params, rng) -> SchnorrGroup:
    return SchnorrGroup(params, rng=rng)


@pytest.fixture()
def feip(params, rng, solver_cache) -> Feip:
    return Feip(params, rng=rng, solver_cache=solver_cache)


@pytest.fixture()
def febo(params, rng, solver_cache) -> Febo:
    return Febo(params, rng=rng, solver_cache=solver_cache)


def _kernel_build_counts() -> tuple[int, int]:
    counters = GLOBAL_REGISTRY.snapshot()["counters"]
    return (counters.get("repro_fastexp_comb_tables_total", 0),
            counters.get("repro_fastexp_chain_cache_builds_total", 0)
            + counters.get("repro_fastexp_column_cache_builds_total", 0))


@pytest.fixture()
def kernel_builds():
    """Tables the exponentiation kernel built in this process since the
    fixture was set up: calling its value returns ``(combs, caches)``,
    the fixed-base combs of ``SchnorrGroup.fixed_base`` and the builds
    of the chain and column caches, which start cold (an earlier test's
    ciphertexts would otherwise hit).  A fixture that requests it counts
    its own setup too."""
    GLOBAL_CHAIN_CACHE.clear()
    GLOBAL_COLUMN_CACHE.clear()
    start = _kernel_build_counts()
    return lambda: tuple(now - then for now, then
                         in zip(_kernel_build_counts(), start))


def _plain_convolve(image, kernel, stride, padding):
    """Reference convolution of a (C, H, W) or (H, W) object image."""
    if image.ndim == 2:
        image = image[np.newaxis]
    c, h, w = image.shape
    f = kernel.shape[-1]
    out_h = (h + 2 * padding - f) // stride + 1
    out_w = (w + 2 * padding - f) // stride + 1
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding), dtype=object)
    padded[:, padding:padding + h, padding:padding + w] = image
    out = np.empty((out_h, out_w), dtype=object)
    kernel3 = kernel if kernel.ndim == 3 else kernel[np.newaxis]
    for i in range(out_h):
        for j in range(out_w):
            window = padded[:, i * stride:i * stride + f,
                            j * stride:j * stride + f]
            out[i, j] = int((window * kernel3).sum())
    return out


@pytest.fixture(scope="session")
def plain_convolve():
    """The loop-by-loop integer convolution secure results must equal."""
    return _plain_convolve


@pytest.fixture(scope="session")
def repro_env() -> dict[str, str]:
    """Environment under which a child ``python`` imports this ``repro``."""
    env = dict(os.environ)
    root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _live_processes() -> dict[int, int]:
    """pid -> parent pid of every live (not zombie) process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            table[int(entry)] = int(ppid)
    return table


@pytest.fixture()
def live_processes():
    """``live_processes()`` maps each live pid to its parent (from /proc)."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs a /proc filesystem")
    return _live_processes
