"""Ablation: the authority's FEBO mask memo, cold against warm.

The secure loss asks, every iteration, for one FEBO subtraction key per
(sample, class) cell, ``sk = cmt^s * g^y``, and the label commitments
``cmt`` are the same every epoch.  A :class:`TrustedAuthority` keeps
each commitment's mask ``cmt^s``, so from the second epoch on such a
request costs one small-exponent ``g^y`` and one product per key
instead of a full-width exponentiation.

This times one 64-key ``"-"`` request -- a 32-sample, 2-class batch,
as in the end-to-end MLP workloads -- at the paper's 256 bits on an
in-process authority: cold (fresh commitments, every mask raised) and
warm (the same request again).  Each round's keys must equal
:meth:`~repro.fe.febo.Febo.key_derive`.  The gate is the median over
rounds of cold / warm, taken per round because a round's two requests
run back to back.
"""

from __future__ import annotations

import random
import statistics

from benchmarks.conftest import series_table, write_report
from benchmarks.harness import write_bench_json
from repro.core.config import CryptoNNConfig
from repro.core.entities import TrustedAuthority
from repro.utils.timer import Stopwatch

#: The paper's security parameter.
BITS = 256

#: keys per request: one MLP batch of 32 samples x 2 classes
KEYS = 64
ROUNDS = 7

#: warm over cold in the median round (read 21-27x in 6 runs on a
#: 2-core VM; a memo that never hits reads about 1.0x)
GATE = 8.0


def test_label_request_cold_vs_warm():
    authority = TrustedAuthority(CryptoNNConfig(security_bits=BITS),
                                 rng=random.Random(7))
    bpk = authority.febo_public_key()
    msk = authority._febo_pair[1]
    rng = random.Random(8)
    cold, warm = [], []
    for _ in range(ROUNDS):
        requests = [(authority.febo.encrypt(bpk, 0).cmt, "-",
                     rng.randrange(-4096, 4097)) for _ in range(KEYS)]
        expected = [authority.febo.key_derive(msk, *request)
                    for request in requests]
        for times in (cold, warm):
            with Stopwatch() as sw:
                keys = authority.derive_febo_keys_batch(requests)
            times.append(sw.elapsed)
            assert keys == expected
    assert authority.mask_stats()["hits"] == ROUNDS * KEYS
    gain = statistics.median(c / w for c, w in zip(cold, warm))
    cold_ms, warm_ms = (statistics.median(t) * 1e3 for t in (cold, warm))
    write_report("ablation_febo_masks", series_table(
        ["request", f"median of {ROUNDS}: one {KEYS}-key '-' request, "
                    f"{BITS}-bit (ms)"],
        [["cold (every mask raised)", f"{cold_ms:.2f}"],
         ["warm (every mask memoized)", f"{warm_ms:.2f}"],
         ["speedup (median round)", f"{gain:.1f}x"]]))
    write_bench_json(
        "ablation_febo_masks",
        {"cold_request_ms": cold_ms, "warm_request_ms": warm_ms},
        speedups={"warm_vs_cold": gain},
        meta={"bits": BITS, "keys": KEYS, "rounds": ROUNDS, "gate": GATE})
    assert gain >= GATE, (
        f"expected a warm label request >= {GATE}x faster than a cold "
        f"one, measured {gain:.1f}x")
