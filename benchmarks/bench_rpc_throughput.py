"""Authority key-service throughput over the real transport.

Measures derived keys per second against a live
:class:`~repro.rpc.authority_service.AuthorityService` on a loopback
socket, comparing the unbatched shape (one framed request per weight
row -- the per-message fan-out the paper's Section IV-B2 formula
counts) against the batched envelope (all rows of an iteration in one
round trip, the repro.rpc default).

The derivation work is identical in both shapes; the gap is pure
round-trip and framing overhead, which is exactly what key-request
batching exists to amortize.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import FULL_SCALE, series_table, write_report
from repro.core.config import CryptoNNConfig
from repro.core.entities import TrustedAuthority
from repro.rpc import AuthorityService, RemoteAuthority

#: Weight rows per "iteration" (first-layer units of a mid-size model).
ROWS_PER_ITER = 16
#: Vector length of each row (features).
ETA = 8
#: Iterations measured per shape.
ITERATIONS = 40 if FULL_SCALE else 10


def _measure(remote: RemoteAuthority, batched: bool,
             rng: random.Random) -> tuple[float, int]:
    """Return (seconds, keys derived) for ITERATIONS iterations."""
    rows_per_iter = [
        [[rng.randrange(-200, 201) for _ in range(ETA)]
         for _ in range(ROWS_PER_ITER)]
        for _ in range(ITERATIONS)
    ]
    keys = 0
    start = time.perf_counter()
    for rows in rows_per_iter:
        if batched:
            keys += len(remote.derive_feip_keys_batch(rows))
        else:
            for row in rows:  # one framed round trip per row
                keys += len(remote.derive_feip_keys([row]))
    return time.perf_counter() - start, keys


def test_rpc_key_throughput(benchmark):
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    service = AuthorityService(authority)
    host, port = service.start()
    try:
        remote = RemoteAuthority(host, port, name="server")
        try:
            rng = random.Random(20190419)
            _measure(remote, True, rng)  # warm up tables + connection
            unbatched_s, unbatched_keys = _measure(remote, False, rng)
            batched_s, batched_keys = benchmark.pedantic(
                _measure, args=(remote, True, rng), rounds=1, iterations=1)
        finally:
            remote.close()
    finally:
        service.stop()

    unbatched_rate = unbatched_keys / unbatched_s
    batched_rate = batched_keys / batched_s
    rows = [
        ["round trips / iteration (unbatched)", str(ROWS_PER_ITER)],
        ["round trips / iteration (batched)", "1"],
        ["keys/s (unbatched)", f"{unbatched_rate:,.0f}"],
        ["keys/s (batched)", f"{batched_rate:,.0f}"],
        ["speedup", f"{batched_rate / unbatched_rate:.2f}x"],
    ]
    write_report("rpc_key_throughput",
                 series_table(["quantity", "value"], rows))

    # collapsing 16 round trips into 1 must not be slower; in practice
    # it is several times faster even on loopback
    assert batched_rate > unbatched_rate
