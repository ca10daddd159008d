"""Ablation: the fast-exponentiation engine and the persistent pool.

Three measurements isolate the three tentpole optimizations, and one
end-to-end Figure-5-style run shows their combined effect against a
faithful re-creation of the seed implementation (plain ``pow``
everywhere, modular inversion in decrypt, window-shift element
recomputed per dlog query, classic sqrt-sized baby-step table, and a
fresh ``ProcessPoolExecutor`` per parallel call):

* ``pow`` vs :class:`FixedBaseExp` comb tables (encryption's cost);
* per-entry ``pow`` loop vs :func:`multiexp` on signed weight vectors
  (decryption's numerator);
* fresh executor per call vs one persistent :class:`SecureComputePool`;
* seed vs current pipeline on a block of 256-bit secure dot products --
  the acceptance gate asserts the >= 3x wall-clock improvement.
"""

from __future__ import annotations

import math
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from benchmarks.conftest import series_table, write_report
from benchmarks.harness import write_bench_json
from repro.fe.feip import Feip
from repro.matrix.parallel import SecureComputePool, _dot_columns
from repro.mathutils.fastexp import FixedBaseExp, multiexp
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.mathutils.modarith import mod_inverse
from repro.utils.timer import Stopwatch

#: The paper's security parameter; the acceptance criterion is stated at
#: this size, so this bench does not follow the scaled BENCH_BITS.
BITS = 256

VECTOR_LENGTH = 10
VALUE_RANGE = (1, 100)
N_PRODUCTS = 30


# -- seed re-creation ---------------------------------------------------------

class _SeedSolver:
    """BSGS exactly as seeded: sqrt table, shift element per query."""

    def __init__(self, group: SchnorrGroup, bound: int):
        self.group = group
        self.bound = bound
        window = 2 * bound + 1
        self.table_size = max(1, math.isqrt(window - 1) + 1)
        table, element = {}, 1
        for j in range(self.table_size):
            table.setdefault(element, j)
            element = element * group.g % group.p
        self._baby_steps = table
        self._giant_step = pow(group.g, (-self.table_size) % group.q, group.p)
        self._max_giant_steps = (window + self.table_size - 1) // self.table_size

    def solve(self, h: int) -> int:
        group = self.group
        gamma = h * pow(group.g, self.bound % group.q, group.p) % group.p
        for i in range(self._max_giant_steps + 1):
            j = self._baby_steps.get(gamma)
            if j is not None:
                candidate = i * self.table_size + j - self.bound
                if -self.bound <= candidate <= self.bound:
                    return candidate
            gamma = gamma * self._giant_step % group.p
        raise AssertionError("seed solver missed the window")


def _seed_encrypt(params: GroupParams, h: tuple, x: list[int],
                  rng: random.Random):
    p, q, g = params.p, params.q, params.g
    r = rng.randrange(q)
    ct0 = pow(g, r, p)
    ct = tuple(pow(hi, r, p) * pow(g, xi % q, p) % p for hi, xi in zip(h, x))
    return ct0, ct


def _seed_decrypt_raw(params: GroupParams, ct0: int, ct: tuple,
                      y: list[int], sk: int) -> int:
    p, q = params.p, params.q
    numerator = 1
    for ct_i, y_i in zip(ct, y):
        numerator = numerator * pow(ct_i, y_i % q, p) % p
    denominator = pow(ct0, sk % q, p)
    return numerator * mod_inverse(denominator, p) % p


# -- micro ablations ----------------------------------------------------------

def test_pow_vs_fixed_base(benchmark):
    params = GroupParams.predefined(BITS)
    rng = random.Random(1)
    exponents = [rng.randrange(params.q) for _ in range(300)]

    with Stopwatch() as sw_table:
        table = FixedBaseExp(params.g, params.p, params.q)
    with Stopwatch() as sw_pow:
        plain = [pow(params.g, e, params.p) for e in exponents]
    with Stopwatch() as sw_comb:
        comb = [table.pow(e) for e in exponents]
    assert plain == comb
    benchmark.pedantic(lambda: [table.pow(e) for e in exponents],
                       rounds=3, iterations=1)

    speedup = sw_pow.elapsed / max(sw_comb.elapsed, 1e-9)
    write_report("ablation_fastexp_comb", series_table(
        ["method", f"time for {len(exponents)} x {BITS}-bit exps (s)"],
        [["pow", f"{sw_pow.elapsed:.4f}"],
         ["fixed-base comb", f"{sw_comb.elapsed:.4f}"],
         ["one-time table build", f"{sw_table.elapsed:.4f}"],
         ["speedup", f"{speedup:.1f}x"]]))
    write_bench_json(
        "ablation_fastexp_comb",
        {"pow_s": sw_pow.elapsed, "comb_s": sw_comb.elapsed,
         "table_build_s": sw_table.elapsed},
        speedups={"comb_vs_pow": speedup},
        meta={"bits": BITS, "exponentiations": len(exponents)})
    assert sw_comb.elapsed < sw_pow.elapsed


def test_naive_vs_multiexp(benchmark):
    """Signed encoded-weight vectors: the decrypt_raw numerator shape."""
    params = GroupParams.predefined(BITS)
    group = SchnorrGroup(params, rng=random.Random(2))
    rng = random.Random(3)
    batches = [
        (
            [group.random_element() for _ in range(VECTOR_LENGTH)],
            [rng.randrange(-200, 201) for _ in range(VECTOR_LENGTH)],
        )
        for _ in range(40)
    ]

    def naive():
        out = []
        for bases, exps in batches:
            acc = 1
            for b, e in zip(bases, exps):
                acc = acc * pow(b, e % params.q, params.p) % params.p
            out.append(acc)
        return out

    def fast():
        return [multiexp(bases, exps, params.p, order=params.q)
                for bases, exps in batches]

    with Stopwatch() as sw_naive:
        res_naive = naive()
    with Stopwatch() as sw_fast:
        res_fast = fast()
    assert res_naive == res_fast
    benchmark.pedantic(fast, rounds=3, iterations=1)

    speedup = sw_naive.elapsed / max(sw_fast.elapsed, 1e-9)
    write_report("ablation_fastexp_multiexp", series_table(
        ["method", f"time for {len(batches)} signed products (s)"],
        [["per-entry pow", f"{sw_naive.elapsed:.4f}"],
         ["multiexp", f"{sw_fast.elapsed:.4f}"],
         ["speedup", f"{speedup:.1f}x"]]))
    write_bench_json(
        "ablation_fastexp_multiexp",
        {"per_entry_pow_s": sw_naive.elapsed, "multiexp_s": sw_fast.elapsed},
        speedups={"multiexp_vs_pow": speedup},
        meta={"bits": BITS, "products": len(batches),
              "vector_length": VECTOR_LENGTH})
    assert sw_fast.elapsed < sw_naive.elapsed


def test_fresh_vs_persistent_pool():
    """Executor startup + state pickling per call vs one warm pool."""
    params = GroupParams.predefined(64)
    rng = random.Random(4)
    feip = Feip(params, rng=rng)
    mpk, msk = feip.setup(4)
    keys = [feip.key_derive(msk, [rng.randrange(1, 10) for _ in range(4)])]
    columns = [feip.encrypt(mpk, [rng.randrange(1, 10) for _ in range(4)])
               for _ in range(8)]
    bound = 4 * 10 * 10 + 1
    calls = 5

    def fresh_pool_call():
        # a fresh executor and state pickle per parallel dot call, as
        # the seed implementation did
        config = (0, "dot",
                  pickle.dumps((params, mpk, tuple(keys), bound)))
        with ProcessPoolExecutor(max_workers=1) as executor:
            return [values for (values,) in executor.map(
                partial(_dot_columns, config), [(ct,) for ct in columns])]

    with Stopwatch() as sw_fresh:
        fresh = [fresh_pool_call() for _ in range(calls)]
    with SecureComputePool(workers=1) as pool:
        pool.secure_dot(params, mpk, columns, keys, bound)  # warm fork
        with Stopwatch() as sw_persistent:
            persistent = [pool.secure_dot(params, mpk, columns, keys, bound)
                          for _ in range(calls)]
        assert pool.executors_created == 1
    for fresh_result, pooled in zip(fresh, persistent):
        for j, values in enumerate(fresh_result):
            assert values == list(pooled[:, j])

    speedup = sw_fresh.elapsed / max(sw_persistent.elapsed, 1e-9)
    write_report("ablation_fastexp_pool", series_table(
        ["policy", f"time for {calls} parallel dot calls (s)"],
        [["fresh executor per call", f"{sw_fresh.elapsed:.3f}"],
         ["persistent pool", f"{sw_persistent.elapsed:.3f}"],
         ["speedup", f"{speedup:.1f}x"]]))
    write_bench_json(
        "ablation_fastexp_pool",
        {"fresh_executor_s": sw_fresh.elapsed,
         "persistent_pool_s": sw_persistent.elapsed},
        speedups={"persistent_vs_fresh": speedup},
        meta={"bits": 64, "calls": calls})
    assert sw_persistent.elapsed < sw_fresh.elapsed


# -- Figure-5-style acceptance gate -------------------------------------------

def test_fig5_secure_dot_speedup(benchmark):
    """End-to-end block of secure inner products, seed vs current.

    Mirrors one Figure 5 configuration (l=10, values in [1, 100]) at the
    paper's 256-bit parameter: encrypt N_PRODUCTS columns, then decrypt
    them against one weight key, bounded-dlog included.  Per-run state
    (fixed-base tables, baby-step tables) is warmed for BOTH pipelines
    first, exactly as a training run amortizes it.
    """
    params = GroupParams.predefined(BITS)
    lo, hi = VALUE_RANGE
    rng = random.Random(5)
    feip = Feip(params, rng=random.Random(6))
    mpk, msk = feip.setup(VECTOR_LENGTH)
    columns = [[rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
               for _ in range(N_PRODUCTS)]
    y = [rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
    key = feip.key_derive(msk, y)
    bound = VECTOR_LENGTH * hi * hi + 1
    expected = [sum(a * b for a, b in zip(col, y)) for col in columns]

    enc_rng = random.Random(7)

    def seed_pipeline():
        cts = [_seed_encrypt(params, mpk.h, col, enc_rng) for col in columns]
        solver = seed_solver  # table cached across iterations, as seeded
        return [
            solver.solve(_seed_decrypt_raw(params, ct0, ct, list(key.y),
                                           key.sk))
            for ct0, ct in cts
        ]

    def current_pipeline():
        cts = [feip.encrypt(mpk, col) for col in columns]
        solver = feip.solver_for(bound)
        return [solver.solve(feip.decrypt_raw(mpk, ct, key)) for ct in cts]

    # warm per-run state for both sides (solver tables, comb tables)
    seed_solver = _SeedSolver(feip.group, bound)
    assert seed_pipeline() == expected
    assert current_pipeline() == expected

    rounds = 3
    with Stopwatch() as sw_seed:
        for _ in range(rounds):
            seed_pipeline()
    with Stopwatch() as sw_current:
        for _ in range(rounds):
            current_pipeline()
    benchmark.pedantic(current_pipeline, rounds=1, iterations=1)

    speedup = sw_seed.elapsed / max(sw_current.elapsed, 1e-9)
    write_report("ablation_fastexp_fig5", series_table(
        ["pipeline",
         f"time for {rounds} x {N_PRODUCTS} dot products, l={VECTOR_LENGTH},"
         f" {BITS}-bit (s)"],
        [["seed (pow + inversion + sqrt-table dlog)",
          f"{sw_seed.elapsed:.3f}"],
         ["fastexp (comb + multiexp + dense-table dlog)",
          f"{sw_current.elapsed:.3f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_fastexp_fig5",
        {"seed_pipeline_s": sw_seed.elapsed,
         "current_pipeline_s": sw_current.elapsed},
        speedups={"current_vs_seed": speedup},
        meta={"bits": BITS, "rounds": rounds, "products": N_PRODUCTS,
              "vector_length": VECTOR_LENGTH, "gate": 3.0})
    assert speedup >= 3.0, f"expected >= 3x, measured {speedup:.2f}x"
