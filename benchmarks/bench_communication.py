"""Communication overhead of key generation (paper Section IV-B2).

The paper gives a closed form: training a two-class NN with k first-layer
units on X (m samples, n features) sends k x n x |w| bytes to the
authority and receives k x |sk| bytes per iteration.  This bench measures
the actual protocol traffic for one iteration and checks it against the
formula (plus the documented per-sample loss-key term the formula
elides).
"""

from __future__ import annotations

import random

import numpy as np

from benchmarks.conftest import series_table, write_report
from repro.core import protocol
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.core.serialization import KEY_WEIGHT_BYTES, exponent_size_bytes
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD


def run_one_iteration(k: int, n: int, m: int,
                      batch_key_requests: bool = False):
    config = CryptoNNConfig(batch_key_requests=batch_key_requests)
    authority = TrustedAuthority(config, rng=random.Random(0))
    client = Client(authority)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(m, n))
    y = rng.integers(0, 2, size=m)
    enc = client.encrypt_tabular(x, y, num_classes=2)
    model = Sequential([Dense(n, k, rng=rng), ReLU(), Dense(k, 2, rng=rng)])
    trainer = CryptoNNTrainer(model, authority, config=config)
    authority.traffic.clear()
    trainer.fit(enc, SGD(0.1), epochs=1, batch_size=m, max_batches=1,
                rng=np.random.default_rng(1))
    return authority


def test_communication_matches_formula(benchmark):
    k, n, m = 8, 6, 30
    authority = benchmark.pedantic(run_one_iteration, args=(k, n, m),
                                   rounds=1, iterations=1)
    w = KEY_WEIGHT_BYTES
    upload = authority.traffic.total_bytes(
        sender=protocol.SERVER, kind=protocol.KIND_FEIP_KEY_REQUEST)
    download = authority.traffic.total_bytes(
        sender=protocol.AUTHORITY, kind=protocol.KIND_FEIP_KEY_RESPONSE)
    sk_bytes = exponent_size_bytes(authority.params)

    formula_upload = k * n * w                       # paper: k x n x |w|
    loss_upload = m * 2 * w                          # per-sample log-p keys
    formula_download = k * (sk_bytes + n * w)        # paper: k x |sk|
    loss_download = m * (sk_bytes + 2 * w)

    rows = [
        ["upload (measured)", str(upload)],
        ["  = k*n*|w| (paper formula)", str(formula_upload)],
        ["  + per-sample loss keys", str(loss_upload)],
        ["download (measured)", str(download)],
        ["  = k*|sk| + bound vectors", str(formula_download)],
        ["  + per-sample loss keys", str(loss_download)],
        ["febo key traffic (bytes)",
         str(authority.traffic.total_bytes(kind=protocol.KIND_FEBO_KEY_REQUEST)
             + authority.traffic.total_bytes(kind=protocol.KIND_FEBO_KEY_RESPONSE))],
    ]
    write_report("communication_overhead",
                 series_table(["quantity", "bytes/iteration"], rows))

    assert upload == formula_upload + loss_upload
    assert download == formula_download + loss_download


def test_communication_batched_vs_unbatched(benchmark):
    """Key-request batching: same payload, collapsed message count.

    The unbatched path sends ``1 + m`` FEIP request messages per
    iteration (one for the first-layer rows, one per sample for the
    loss keys); batching coalesces them into 2 framed envelopes at the
    cost of one 8-byte envelope header each -- the shape the networked
    runtime (repro.rpc) puts on the wire.
    """
    from repro.core.serialization import BATCH_HEADER_BYTES

    k, n, m = 8, 6, 30
    unbatched = run_one_iteration(k, n, m, batch_key_requests=False)
    batched = benchmark.pedantic(run_one_iteration, args=(k, n, m, True),
                                 rounds=1, iterations=1)

    plain_up = unbatched.traffic.total_bytes(
        sender=protocol.SERVER, kind=protocol.KIND_FEIP_KEY_REQUEST)
    plain_msgs = unbatched.traffic.message_count(
        protocol.KIND_FEIP_KEY_REQUEST)
    batch_up = batched.traffic.total_bytes(
        sender=protocol.SERVER, kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST)
    batch_msgs = batched.traffic.message_count(
        protocol.KIND_FEIP_KEY_BATCH_REQUEST)
    febo_plain_msgs = unbatched.traffic.message_count(
        protocol.KIND_FEBO_KEY_REQUEST)
    febo_batch_msgs = batched.traffic.message_count(
        protocol.KIND_FEBO_KEY_BATCH_REQUEST)

    rows = [
        ["feip request messages (unbatched)", str(plain_msgs)],
        ["feip request messages (batched)", str(batch_msgs)],
        ["feip upload bytes (unbatched = paper formula)", str(plain_up)],
        ["feip upload bytes (batched = formula + headers)", str(batch_up)],
        ["febo request messages (unbatched)", str(febo_plain_msgs)],
        ["febo request messages (batched)", str(febo_batch_msgs)],
    ]
    write_report("communication_batched_vs_unbatched",
                 series_table(["quantity", "per iteration"], rows))

    # paper formula payload is untouched; only envelope headers are added
    assert plain_up == k * n * KEY_WEIGHT_BYTES + m * 2 * KEY_WEIGHT_BYTES
    assert batch_up == plain_up + batch_msgs * BATCH_HEADER_BYTES
    # the request fan-out collapses from 1 + m messages to 2 envelopes
    assert plain_msgs == 1 + m
    assert batch_msgs == 2
