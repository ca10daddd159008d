"""Measurement harnesses shared by the figure benches.

Each function reproduces the measurement loop behind one family of
figures: element-wise ops (Figures 3 and 4), dot products (Figure 5) and
the twin-training comparison (Figure 6 / Table III).

:func:`write_bench_json` is the machine-readable twin of the text
reports in ``benchmarks/conftest.write_report``: ablation benches dump
their raw numbers and speedup ratios to
``benchmarks/results/BENCH_<name>.json`` so the perf trajectory is
diffable across PRs without parsing formatted tables.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field

import numpy as np

from repro.matrix.parallel import get_compute_pool
from repro.matrix.secure_matrix import (
    SecureMatrixScheme,
    matrix_bound_dot,
    matrix_bound_elementwise,
)
from repro.mathutils.dlog import SolverCache
from repro.mathutils.group import GroupParams
from repro.utils.timer import Stopwatch

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_bench_json(name: str, numbers: dict, *,
                     speedups: dict | None = None,
                     meta: dict | None = None) -> pathlib.Path:
    """Persist one bench's results as ``results/BENCH_<name>.json``.

    ``numbers`` holds raw measurements (seconds, counts, bytes),
    ``speedups`` holds derived ratios, ``meta`` holds the configuration
    (group bits, sizes) needed to compare runs fairly.  Keys are flat
    strings so downstream tooling can diff two runs with ``jq``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "meta": meta or {},
        "numbers": {k: round(v, 6) if isinstance(v, float) else v
                    for k, v in numbers.items()},
        "speedups": {k: round(float(v), 3)
                     for k, v in (speedups or {}).items()},
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class ElementwisePoint:
    """One measured point of a Figure 3/4 sweep."""

    value_range: tuple[int, int]
    count: int
    encrypt_s: float
    key_derive_s: float
    secure_s: float
    parallel_s: float


def measure_elementwise(params: GroupParams, op: str, count: int,
                        value_range: tuple[int, int],
                        seed: int = 0, workers: int | None = None,
                        ) -> ElementwisePoint:
    """Measure the four panels of Figure 3 (op='+') / Figure 4 (op='*')."""
    rng = random.Random(seed)
    cache = SolverCache()
    scheme = SecureMatrixScheme(params, rng=rng, solver_cache=cache)
    _, msk_bo = scheme.setup(column_length=1)
    lo, hi = value_range
    x = np.array([[rng.randrange(lo, hi + 1) for _ in range(count)]],
                 dtype=object)
    y = np.array([[rng.randrange(lo, hi + 1) for _ in range(count)]],
                 dtype=object)

    with Stopwatch() as sw_enc:
        enc = scheme.pre_process_encryption(x, with_feip=False)
    with Stopwatch() as sw_key:
        keys = scheme.derive_elementwise_keys(msk_bo, op, y, enc.commitments())
    bound_mag = max(abs(lo), abs(hi))
    bound = matrix_bound_elementwise(op, bound_mag, bound_mag)
    with Stopwatch() as sw_serial:
        z = scheme.secure_elementwise(enc, keys, bound)
    with Stopwatch() as sw_parallel:
        cells = list(zip(keys[0], enc.require_febo()[0]))  # one row
        zp = get_compute_pool(workers).secure_elementwise(
            params, scheme.febo_mpk, cells, enc.shape, bound)
    assert (z == zp).all(), "parallel result diverged from serial"
    return ElementwisePoint(value_range, count, sw_enc.elapsed,
                            sw_key.elapsed, sw_serial.elapsed,
                            sw_parallel.elapsed)


@dataclass
class DotPoint:
    """One measured point of a Figure 5 sweep."""

    vector_length: int
    value_range: tuple[int, int]
    count: int
    encrypt_s: float
    key_derive_s: float
    secure_s: float
    parallel_s: float


def measure_dot(params: GroupParams, vector_length: int, count: int,
                value_range: tuple[int, int], seed: int = 0,
                workers: int | None = None) -> DotPoint:
    """Measure the four panels of Figure 5 for ``count`` inner products."""
    rng = random.Random(seed)
    cache = SolverCache()
    scheme = SecureMatrixScheme(params, rng=rng, solver_cache=cache)
    msk_ip, _ = scheme.setup(column_length=vector_length)
    lo, hi = value_range
    x = np.array(
        [[rng.randrange(lo, hi + 1) for _ in range(count)]
         for _ in range(vector_length)], dtype=object)
    y = np.array([[rng.randrange(lo, hi + 1) for _ in range(vector_length)]],
                 dtype=object)

    with Stopwatch() as sw_enc:
        enc = scheme.pre_process_encryption(x, with_febo=False)
    with Stopwatch() as sw_key:
        keys = scheme.derive_dot_keys(msk_ip, y)
    bound = matrix_bound_dot(max(abs(lo), abs(hi)), max(abs(lo), abs(hi)),
                             vector_length)
    with Stopwatch() as sw_serial:
        z = scheme.secure_dot(enc, keys, bound)
    with Stopwatch() as sw_parallel:
        zp = get_compute_pool(workers).secure_dot(
            params, scheme.feip_mpk, enc.require_feip(), keys, bound)
    assert (z == zp).all(), "parallel result diverged from serial"
    return DotPoint(vector_length, value_range, count, sw_enc.elapsed,
                    sw_key.elapsed, sw_serial.elapsed, sw_parallel.elapsed)


@dataclass
class TrainingComparison:
    """Everything Figure 6 and Table III report, for both pipelines."""

    batch_size: int
    epochs: int
    window: int
    plain_batch_accuracy: list[float] = field(default_factory=list)
    crypto_batch_accuracy: list[float] = field(default_factory=list)
    plain_epoch_test_accuracy: list[float] = field(default_factory=list)
    crypto_epoch_test_accuracy: list[float] = field(default_factory=list)
    plain_train_s: float = 0.0
    crypto_train_s: float = 0.0
    encrypt_s: float = 0.0

    def averaged(self, series: list[float]) -> list[float]:
        return [
            float(np.mean(series[i:i + self.window]))
            for i in range(0, len(series), self.window)
        ]


def run_training_comparison(n_train: int = 600, n_test: int = 200,
                            canvas: int = 8, batch_size: int = 25,
                            epochs: int = 2, window: int = 4,
                            seed: int = 0) -> TrainingComparison:
    """Train a plain LeNet-style CNN and its CryptoCNN twin.

    Both models share initial weights and batch order, so any divergence
    is attributable to the fixed-point / crypto path -- the comparison
    behind Figure 6 and Table III.
    """
    # imports here keep the module importable without the heavier deps
    from repro.core.config import CryptoNNConfig
    from repro.core.cryptocnn import CryptoCNNTrainer
    from repro.core.entities import Client, TrustedAuthority
    from repro.data.preprocess import one_hot
    from repro.data.synth_digits import load_synth_digits
    from repro.nn.lenet import build_lenet_small
    from repro.nn.losses import SoftmaxCrossEntropyLoss
    from repro.nn.optimizers import SGD

    train, test = load_synth_digits(n_train=n_train, n_test=n_test,
                                    canvas=canvas, seed=seed)
    result = TrainingComparison(batch_size=batch_size, epochs=epochs,
                                window=window)

    weights_rng = np.random.default_rng(seed)
    plain_model = build_lenet_small(weights_rng, image_size=canvas)
    crypto_model = build_lenet_small(np.random.default_rng(seed + 1),
                                     image_size=canvas)
    crypto_model.set_weights(plain_model.get_weights())

    # --- plaintext pipeline -------------------------------------------------
    with Stopwatch() as sw_plain:
        plain_hist_all = []
        for _ in range(epochs):
            hist = plain_model.fit(
                train.x, one_hot(train.y, 10), SoftmaxCrossEntropyLoss(),
                SGD(0.5), epochs=1, batch_size=batch_size,
                rng=np.random.default_rng(seed + 2), shuffle=True,
            )
            plain_hist_all.extend(hist.batch_accuracy)
            result.plain_epoch_test_accuracy.append(
                plain_model.evaluate(test.x, one_hot(test.y, 10))
            )
    result.plain_batch_accuracy = plain_hist_all
    result.plain_train_s = sw_plain.elapsed

    # --- encrypted pipeline ---------------------------------------------------
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(seed))
    client = Client(authority)
    with Stopwatch() as sw_enc:
        enc_train = client.encrypt_images(train.x, train.y, num_classes=10,
                                          filter_size=3, stride=1, padding=1)
        enc_test = client.encrypt_images(test.x, test.y, num_classes=10,
                                         filter_size=3, stride=1, padding=1)
    result.encrypt_s = sw_enc.elapsed

    trainer = CryptoCNNTrainer(crypto_model, authority)
    with Stopwatch() as sw_crypto:
        crypto_hist_all = []
        for _ in range(epochs):
            hist = trainer.fit(enc_train, SGD(0.5), epochs=1,
                               batch_size=batch_size,
                               rng=np.random.default_rng(seed + 2),
                               shuffle=True)
            crypto_hist_all.extend(hist.batch_accuracy)
            result.crypto_epoch_test_accuracy.append(trainer.evaluate(enc_test))
    result.crypto_batch_accuracy = crypto_hist_all
    result.crypto_train_s = sw_crypto.elapsed
    return result
