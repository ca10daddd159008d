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
implementation both pipelines are checked against), each side's best of
``ROUNDS`` passes, every batched pass on a cold column cache.  The same
test times the two column shapes the end-to-end benchmark decrypts (the
MLP input layer and the small CNN's filter bank) and reports
milliseconds per column.  Both are also timed cold and warm -- the
second epoch of training decrypts the same ciphertexts -- and in the
median round the warm pass must be faster: >= 1.25x for the CNN's 4-row
columns on the chain cache, >= 1.10x for the MLP's 32-row columns on
the column cache.
"""

from __future__ import annotations

import random
import statistics

from benchmarks.conftest import series_table, write_report
from benchmarks.harness import write_bench_json
from repro.fe.feip import Feip
from repro.mathutils.dlog import DlogSolver
from repro.mathutils.fastexp import GLOBAL_CHAIN_CACHE, GLOBAL_COLUMN_CACHE
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
ROUNDS = 5
GATE = 2.0

#: (name, eta, m, |y| bound) of the columns the end-to-end workloads
#: decrypt: 64 features against 32 hidden units, and a 3x3 window
#: against 4 filters.
E2E_SHAPES = [("e2e_mlp_eta64_m32", 64, 32, 60),
              ("e2e_cnn_eta9_m4", 9, 4, 60)]
E2E_COLUMNS = 8

#: The few-row shape whose ``ct_0`` chains the chain cache keeps, the
#: columns each cold / warm pass decrypts, and the warm-over-cold gate.
CHAIN_SHAPE = ("e2e_cnn_eta9_m4", 9, 4, 60)
CHAIN_COLUMNS = 32
CHAIN_GATE = 1.25

#: The comb-mode shape whose tables the column cache keeps, its columns
#: per pass, and the warm-over-cold gate (the median round read
#: 1.18-1.30x in 12 runs on a 2-core VM; a cache that never hits reads
#: about 1.0x).
COLUMN_SHAPE = ("e2e_mlp_eta64_m32", 64, 32, 60)
COLUMN_COLUMNS = 16
COLUMN_GATE = 1.10


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


def _cold_warm_ms(feip: Feip, eta: int, m: int, magnitude: int,
                  comb: bool, n_columns: int) -> tuple[float, float, float]:
    """(cold, warm) ms per column on a cache, best of ``ROUNDS``, and
    the median over rounds of cold time / warm time.

    ``comb`` picks the shape's mode and so its cache: the column cache
    for a comb-mode shape, the chain cache for a chain-mode one.  Each
    round clears that cache, decrypts every column once (each
    ciphertext builds its tables or chain) and then again (each reuses
    them); both passes must equal the per-row reference.  The gain is
    taken per round because a round's two passes run back to back: a
    slow spell of the machine that covers only some rounds moves both
    passes of a round alike, where a ratio of the best passes could
    pair a fast cold round with slow warm ones.
    """
    rng = random.Random(eta * 1000 + m + 1)
    mpk, msk = feip.setup(eta)
    keys = [feip.key_derive(msk, [rng.randint(-magnitude, magnitude)
                                  for _ in range(eta)])
            for _ in range(m)]
    cts = [feip.encrypt(mpk, [rng.randint(0, 100) for _ in range(eta)])
           for _ in range(n_columns)]
    bound = eta * 100 * magnitude + 1
    solver = feip.solver_for(bound)
    plan = feip.row_plan(keys)
    cache = GLOBAL_COLUMN_CACHE if comb else GLOBAL_CHAIN_CACHE
    assert (plan.comb_window is not None) == comb, \
        "shape no longer takes the mode its cache serves"
    reference = [[feip.decrypt(mpk, ct, key, bound, solver=solver)
                  for key in keys] for ct in cts[:2]]
    cold, warm = [], []
    for _ in range(ROUNDS):
        cache.clear()
        for times in (cold, warm):
            with Stopwatch() as sw:
                got = [feip.decrypt_rows(mpk, ct, keys, bound, solver=solver,
                                         plan=plan) for ct in cts]
            times.append(sw.elapsed)
            assert got[:2] == reference
    gain = statistics.median(c / w for c, w in zip(cold, warm))
    return (min(cold) / len(cts) * 1e3, min(warm) / len(cts) * 1e3, gain)


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

    per_row_times, batched_times = [], []
    for _ in range(ROUNDS):
        with Stopwatch() as sw:
            per_row_pipeline()
        per_row_times.append(sw.elapsed)
        # the 64-row columns take the comb, so a warm column cache
        # would time reuse, not batched decryption
        GLOBAL_COLUMN_CACHE.clear()
        with Stopwatch() as sw:
            batched_pipeline()
        batched_times.append(sw.elapsed)
    per_row_s, batched_s = min(per_row_times), min(batched_times)
    GLOBAL_COLUMN_CACHE.clear()
    benchmark.pedantic(batched_pipeline, rounds=1, iterations=1)

    speedup = per_row_s / max(batched_s, 1e-9)
    shapes = {name: _column_ms(feip, eta, m, magnitude)
              for name, eta, m, magnitude in E2E_SHAPES}
    caches = {"chain": (CHAIN_SHAPE, False, CHAIN_COLUMNS, CHAIN_GATE),
              "column": (COLUMN_SHAPE, True, COLUMN_COLUMNS, COLUMN_GATE)}
    cold_warm = {}
    for cache, ((name, *shape), comb, columns, gate) in caches.items():
        cold_warm[cache] = (name, *_cold_warm_ms(feip, *shape, comb,
                                                 columns), gate)
    write_report("ablation_batchdot", series_table(
        ["pipeline",
         f"best of {ROUNDS} ({M_ROWS}x{VECTOR_LENGTH} @ "
         f"{VECTOR_LENGTH}x{N_COLUMNS}) secure dots, {BITS}-bit (s)"],
        [["per-row (PR 1: decrypt per cell)", f"{per_row_s:.3f}"],
         ["batched (decrypt_rows per column)", f"{batched_s:.3f}"],
         ["speedup", f"{speedup:.2f}x"]]
        + [[f"{name}: per-row / batched (ms per column)",
            f"{per_row:.2f} / {batched:.2f}"]
           for name, (per_row, batched) in shapes.items()]
        + [[f"{name}: cold / warm {cache} cache (ms per column)",
            f"{cold_ms:.2f} / {warm_ms:.2f} ({gain:.2f}x)"]
           for cache, (name, cold_ms, warm_ms, gain, _) in
           cold_warm.items()]))
    numbers = {"per_row_best_s": per_row_s, "batched_best_s": batched_s}
    for name, (per_row, batched) in shapes.items():
        numbers[f"{name}_per_row_ms_per_column"] = per_row
        numbers[f"{name}_batched_ms_per_column"] = batched
    for cache, (name, cold_ms, warm_ms, _, _) in cold_warm.items():
        numbers[f"{name}_cold_{cache}_ms_per_column"] = cold_ms
        numbers[f"{name}_warm_{cache}_ms_per_column"] = warm_ms
    write_bench_json(
        "ablation_batchdot", numbers,
        speedups={"batched_vs_per_row": speedup,
                  **{f"warm_vs_cold_{cache}": gain
                     for cache, (_, _, _, gain, _) in cold_warm.items()}},
        meta={"bits": BITS, "rounds": ROUNDS, "m_rows": M_ROWS,
              "vector_length": VECTOR_LENGTH, "columns": N_COLUMNS,
              "gate": GATE, "e2e_columns": E2E_COLUMNS,
              "e2e_shapes": [list(shape) for shape in E2E_SHAPES],
              "chain_gate": CHAIN_GATE, "chain_columns": CHAIN_COLUMNS,
              "column_gate": COLUMN_GATE, "column_columns": COLUMN_COLUMNS})
    assert speedup >= GATE, f"expected >= {GATE}x, measured {speedup:.2f}x"
    for cache, (_, _, _, gain, gate) in cold_warm.items():
        assert gain >= gate, (
            f"expected a warm {cache} cache >= {gate}x over a cold one, "
            f"measured {gain:.2f}x")


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
