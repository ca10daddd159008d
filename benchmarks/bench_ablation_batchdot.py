"""Ablation: batched decryption of the secure dot-product matrix.

PR 1 made a *single* FEIP decryption fast (multiexp numerator, comb
tables, dense-table dlog) but still decrypted the output matrix row by
row: for every encrypted column, each of the m weight keys re-walked its
own exponentiation and discrete-log machinery even though all m rows
share the exact same ciphertext bases ``(ct_0, ct_1..ct_eta)``.  The
batched engine amortizes everything shareable:

* :meth:`~repro.fe.feip.Feip.row_plan` reduces and recodes the m weight
  rows and their ``sk`` scalars once per key set;
* per column, :class:`~repro.mathutils.fastexp.SharedBaseMultiExp`
  builds positive odd-power tables for the bases and a signed comb for
  ``ct_0`` sized for the batch
  (:func:`~repro.mathutils.fastexp.amortized_comb_window`) -- or, under
  ``CHAIN_MAX_ROWS`` rows, walks ``ct_0``'s cached squaring chain --
  walks each row's numerator and denominator against them, and divides
  all m denominators out with one batch inversion;
* :meth:`~repro.mathutils.dlog.DlogSolver.solve_many` dedups the m
  targets and walks outward from zero, where encoded inner products
  cluster.

The acceptance gate asserts the combined effect: >= 2x wall clock on an
m x eta secure dot at the paper's 256-bit parameter versus the PR 1
per-row path (which stays available as ``Feip.decrypt``, the reference
implementation both pipelines are checked against).  The same test
times the two column shapes the end-to-end benchmark decrypts (the MLP
input layer and the small CNN's filter bank) and reports milliseconds
per column.  The CNN's 4-row columns are also timed on a cold and a warm
chain cache -- the second epoch of training decrypts the same
ciphertexts -- and the warm pass must be >= 1.25x faster.
"""

from __future__ import annotations

import random

from benchmarks.conftest import series_table, write_report
from benchmarks.harness import write_bench_json
from repro.fe.feip import Feip
from repro.mathutils.dlog import DlogSolver
from repro.mathutils.fastexp import GLOBAL_CHAIN_CACHE
from repro.utils.timer import Stopwatch
from repro.mathutils.group import GroupParams

#: The paper's security parameter; the acceptance criterion is stated at
#: this size, so this bench does not follow the scaled BENCH_BITS.
BITS = 256

#: Output rows of the decryption matrix -- the hidden width of a
#: Figure-6-style MLP first layer (one FEIP key per unit).
M_ROWS = 64

VECTOR_LENGTH = 10
VALUE_RANGE = (1, 100)
N_COLUMNS = 6
ROUNDS = 3
GATE = 2.0

#: (name, eta, m, |y| bound) of the columns the end-to-end workloads
#: decrypt: 64 features against 32 hidden units, and a 3x3 window
#: against 4 filters.
E2E_SHAPES = [("e2e_mlp_eta64_m32", 64, 32, 60),
              ("e2e_cnn_eta9_m4", 9, 4, 60)]
E2E_COLUMNS = 8

#: The few-row shape whose ``ct_0`` chains the cache keeps, the columns
#: each cold / warm pass decrypts, and the warm-over-cold gate.
CHAIN_SHAPE = ("e2e_cnn_eta9_m4", 9, 4, 60)
CHAIN_COLUMNS = 32
CHAIN_GATE = 1.25


def _column_ms(feip: Feip, eta: int, m: int, magnitude: int
               ) -> tuple[float, float]:
    """(per-row ms, batched ms) per column of one shape, checked equal."""
    rng = random.Random(eta * 1000 + m)
    mpk, msk = feip.setup(eta)
    keys = [feip.key_derive(msk, [rng.randint(-magnitude, magnitude)
                                  for _ in range(eta)])
            for _ in range(m)]
    cts = [feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(eta)])
           for _ in range(E2E_COLUMNS)]
    bound = eta * 100 * magnitude + 1
    solver = feip.solver_for(bound)
    with Stopwatch() as sw_per_row:
        reference = [[feip.decrypt(mpk, ct, key, bound, solver=solver)
                      for key in keys] for ct in cts[:2]]
    with Stopwatch() as sw_batched:
        plan = feip.row_plan(keys)
        batched = [feip.decrypt_rows(mpk, ct, keys, bound, solver=solver,
                                     plan=plan) for ct in cts]
    assert batched[:2] == reference
    return (sw_per_row.elapsed / 2 * 1e3,
            sw_batched.elapsed / len(cts) * 1e3)


def _chain_ms(feip: Feip, eta: int, m: int, magnitude: int
              ) -> tuple[float, float]:
    """(cold, warm) chain-cache ms per column, best of ``ROUNDS``.

    Each round clears the cache, decrypts every column once (each
    ``ct_0`` builds its chain) and then again (each walks its cached
    chain); both passes must equal the per-row reference.
    """
    rng = random.Random(eta * 1000 + m + 1)
    mpk, msk = feip.setup(eta)
    keys = [feip.key_derive(msk, [rng.randint(-magnitude, magnitude)
                                  for _ in range(eta)])
            for _ in range(m)]
    cts = [feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(eta)])
           for _ in range(CHAIN_COLUMNS)]
    bound = eta * 100 * magnitude + 1
    solver = feip.solver_for(bound)
    plan = feip.row_plan(keys)
    assert plan.chain_ops is not None, "shape no longer takes the chain"
    reference = [[feip.decrypt(mpk, ct, key, bound, solver=solver)
                  for key in keys] for ct in cts[:2]]
    cold, warm = [], []
    for _ in range(ROUNDS):
        GLOBAL_CHAIN_CACHE.clear()
        for times in (cold, warm):
            with Stopwatch() as sw:
                got = [feip.decrypt_rows(mpk, ct, keys, bound, solver=solver,
                                         plan=plan) for ct in cts]
            times.append(sw.elapsed)
            assert got[:2] == reference
    return (min(cold) / len(cts) * 1e3, min(warm) / len(cts) * 1e3)


def test_batched_vs_per_row_secure_dot(benchmark):
    """m x eta decryption matrix: per-row PR 1 path vs decrypt_rows."""
    params = GroupParams.predefined(BITS)
    lo, hi = VALUE_RANGE
    rng = random.Random(11)
    feip = Feip(params, rng=random.Random(12))
    mpk, msk = feip.setup(VECTOR_LENGTH)
    columns = [[rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
               for _ in range(N_COLUMNS)]
    weights = [[rng.randrange(lo, hi + 1) for _ in range(VECTOR_LENGTH)]
               for _ in range(M_ROWS)]
    keys = [feip.key_derive(msk, y) for y in weights]
    cts = [feip.encrypt(mpk, col) for col in columns]
    bound = VECTOR_LENGTH * hi * hi + 1
    expected = [[sum(a * b for a, b in zip(col, y)) for col in columns]
                for y in weights]

    solver = feip.solver_for(bound)

    def per_row_pipeline():
        # PR 1: one independent decrypt per (row, column) cell
        return [[feip.decrypt(mpk, ct, key, bound, solver=solver)
                 for ct in cts]
                for key in keys]

    def batched_pipeline():
        z = [feip.decrypt_rows(mpk, ct, keys, bound, solver=solver)
             for ct in cts]
        return [[z[j][i] for j in range(len(cts))]
                for i in range(len(keys))]

    # warm shared state (solver tables, comb tables for g) for BOTH sides
    assert per_row_pipeline() == expected
    assert batched_pipeline() == expected

    with Stopwatch() as sw_per_row:
        for _ in range(ROUNDS):
            per_row_pipeline()
    with Stopwatch() as sw_batched:
        for _ in range(ROUNDS):
            batched_pipeline()
    benchmark.pedantic(batched_pipeline, rounds=1, iterations=1)

    speedup = sw_per_row.elapsed / max(sw_batched.elapsed, 1e-9)
    shapes = {name: _column_ms(feip, eta, m, magnitude)
              for name, eta, m, magnitude in E2E_SHAPES}
    chain_name, *chain_shape = CHAIN_SHAPE
    cold_ms, warm_ms = _chain_ms(feip, *chain_shape)
    chain_speedup = cold_ms / max(warm_ms, 1e-9)
    write_report("ablation_batchdot", series_table(
        ["pipeline",
         f"time for {ROUNDS} x ({M_ROWS}x{VECTOR_LENGTH} @ "
         f"{VECTOR_LENGTH}x{N_COLUMNS}) secure dots, {BITS}-bit (s)"],
        [["per-row (PR 1: decrypt per cell)", f"{sw_per_row.elapsed:.3f}"],
         ["batched (decrypt_rows per column)", f"{sw_batched.elapsed:.3f}"],
         ["speedup", f"{speedup:.2f}x"]]
        + [[f"{name}: per-row / batched (ms per column)",
            f"{per_row:.2f} / {batched:.2f}"]
           for name, (per_row, batched) in shapes.items()]
        + [[f"{chain_name}: cold / warm chain cache (ms per column)",
            f"{cold_ms:.2f} / {warm_ms:.2f} ({chain_speedup:.2f}x)"]]))
    numbers = {"per_row_s": sw_per_row.elapsed,
               "batched_s": sw_batched.elapsed}
    for name, (per_row, batched) in shapes.items():
        numbers[f"{name}_per_row_ms_per_column"] = per_row
        numbers[f"{name}_batched_ms_per_column"] = batched
    numbers[f"{chain_name}_cold_chain_ms_per_column"] = cold_ms
    numbers[f"{chain_name}_warm_chain_ms_per_column"] = warm_ms
    write_bench_json(
        "ablation_batchdot", numbers,
        speedups={"batched_vs_per_row": speedup,
                  "warm_vs_cold_chain": chain_speedup},
        meta={"bits": BITS, "rounds": ROUNDS, "m_rows": M_ROWS,
              "vector_length": VECTOR_LENGTH, "columns": N_COLUMNS,
              "gate": GATE, "e2e_columns": E2E_COLUMNS,
              "e2e_shapes": [list(shape) for shape in E2E_SHAPES],
              "chain_gate": CHAIN_GATE, "chain_columns": CHAIN_COLUMNS})
    assert speedup >= GATE, f"expected >= {GATE}x, measured {speedup:.2f}x"
    assert chain_speedup >= CHAIN_GATE, (
        f"expected a warm chain cache >= {CHAIN_GATE}x over a cold one, "
        f"measured {chain_speedup:.2f}x")


def test_solve_many_shares_the_stride_walk():
    """Micro: batched dlog vs per-element under a sparse baby table.

    Training-sized bounds do not fit the dense table: ``dot_bound(64)``
    is 2^21 against a 2^15-entry table, so targets far from zero take
    up to 2 x 64 giant steps.  This pins that sparse-table regime with
    targets spread over the whole window, where the batch shares one
    deduplicated outward walk.  Informational -- the end-to-end gate
    lives in the test above.
    """
    params = GroupParams.predefined(64)
    from repro.mathutils.group import SchnorrGroup

    group = SchnorrGroup(params)
    bound = 200_000
    solver = DlogSolver(group, bound, table_size=512)
    rng = random.Random(13)
    values = [rng.randrange(-bound, bound + 1) for _ in range(96)]
    values += values[:32]  # duplicates: the dedup path
    targets = [group.gexp(v) for v in values]

    assert solver.solve_many(targets) == values  # warm + correct
    with Stopwatch() as sw_each:
        each = [solver.solve(h) for h in targets]
    with Stopwatch() as sw_many:
        many = solver.solve_many(targets)
    assert each == many == values

    speedup = sw_each.elapsed / max(sw_many.elapsed, 1e-9)
    write_report("ablation_batchdot_solvemany", series_table(
        ["method", f"time for {len(targets)} dlogs, bound={bound}, "
                   f"table=512 (s)"],
        [["solve per element", f"{sw_each.elapsed:.4f}"],
         ["solve_many", f"{sw_many.elapsed:.4f}"],
         ["speedup", f"{speedup:.2f}x"]]))
    write_bench_json(
        "ablation_batchdot_solvemany",
        {"solve_each_s": sw_each.elapsed, "solve_many_s": sw_many.elapsed},
        speedups={"solve_many_vs_each": speedup},
        meta={"bits": 64, "bound": bound, "table_size": 512,
              "targets": len(targets)})
