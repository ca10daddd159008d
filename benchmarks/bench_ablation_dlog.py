"""Ablation: cached baby-step table vs fresh-per-decrypt discrete logs.

The solver cache is a key implementation choice: the baby-step table
construction dominates a single bounded dlog, but training reuses the
same bound thousands of times.  This bench measures both policies on a
batch of decryptions.
"""

from __future__ import annotations

import random

from benchmarks.conftest import series_table, write_report
from repro.fe.feip import Feip
from repro.mathutils.dlog import DlogSolver
from repro.utils.timer import Stopwatch

BATCH = 200
BOUND = 1 << 20


def test_dlog_cache_ablation(benchmark, bench_params):
    rng = random.Random(9)
    feip = Feip(bench_params, rng=rng)
    mpk, msk = feip.setup(4)
    key = feip.key_derive(msk, [3, 1, 4, 1])
    cts = [feip.encrypt(mpk, [rng.randrange(-50, 51) for _ in range(4)])
           for _ in range(BATCH)]
    elements = [feip.decrypt_raw(mpk, ct, key) for ct in cts]

    def cached():
        solver = DlogSolver(feip.group, BOUND)
        return [solver.solve(e) for e in elements]

    def uncached():
        return [DlogSolver(feip.group, BOUND).solve(e) for e in elements]

    with Stopwatch() as sw_cached:
        res_cached = cached()
    with Stopwatch() as sw_uncached:
        res_uncached = uncached()
    assert res_cached == res_uncached

    benchmark.pedantic(cached, rounds=3, iterations=1)

    speedup = sw_uncached.elapsed / max(sw_cached.elapsed, 1e-9)
    write_report("ablation_dlog_cache", series_table(
        ["policy", f"time for {BATCH} dlogs (s)"],
        [["shared table", f"{sw_cached.elapsed:.3f}"],
         ["fresh table per decrypt", f"{sw_uncached.elapsed:.3f}"],
         ["speedup", f"{speedup:.1f}x"]]))
    assert sw_uncached.elapsed > sw_cached.elapsed
