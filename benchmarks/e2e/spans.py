"""Outside-in layer tracing for the end-to-end benchmark.

A traced job patches the public methods listed in :data:`TARGETS` on
their classes -- in that job's process only -- so each call records a
span (name, start, end, parent span id, run id).  Nothing under
``src/`` knows it is being traced.  A layer's self time is its span
minus its children, so the ``*_s`` layer metrics partition each
iteration without double counting.

Pool workers inherit the patched classes when they fork, but their
spans die with them: work done inside workers is invisible here.  The
``mlp-rpc`` trainer and authority run in their own processes, so their
layer numbers come from the training server's ``--trace-file`` and the
``service-metrics`` scrapes instead (:func:`service_layers`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.core.cryptocnn import CryptoCNNTrainer
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.core.secure_layers import (
    SecureConvInput,
    SecureLinearInput,
    SecureSoftmaxCrossEntropy,
)
from repro.fe.engine import EncryptionEngine
from repro.fe.febo import Febo
from repro.fe.feip import Feip
from repro.mathutils.dlog import DlogSolver
from repro.matrix.parallel import SecureComputePool


def _n_result(args, kwargs, result) -> int:
    return len(result)


def _n_arg(position: int, name: str):
    """Count the items of one call argument (positional or keyword)."""
    def count(args, kwargs, result) -> int:
        return len(kwargs[name] if name in kwargs else args[position])
    return count


#: (class, method, span name, optional work count) for every wrapped call.
TARGETS = [
    (CryptoNNTrainer, "train_batch", "trainer.iteration", None),
    (CryptoCNNTrainer, "train_batch", "trainer.iteration", None),
    (Client, "encrypt_tabular", "entities.encrypt", None),
    (Client, "encrypt_images", "entities.encrypt", None),
    (TrustedAuthority, "derive_feip_keys", "entities.derive_feip", _n_result),
    (TrustedAuthority, "derive_feip_keys_batch", "entities.derive_feip",
     _n_result),
    (TrustedAuthority, "derive_febo_keys", "entities.derive_febo", _n_result),
    (TrustedAuthority, "derive_febo_keys_batch", "entities.derive_febo",
     _n_result),
    (Feip, "decrypt_rows", "fe.feip_decrypt_rows", _n_arg(3, "keys")),
    (Feip, "decrypt_raw", "fe.feip_decrypt_raw", None),
    (Febo, "decrypt_many", "fe.febo_decrypt_many", _n_arg(2, "items")),
    (EncryptionEngine, "prefill_feip", "fe.engine_prefill", None),
    (EncryptionEngine, "prefill_febo", "fe.engine_prefill", None),
    (DlogSolver, "solve_many", "mathutils.dlog_solve_many",
     _n_arg(1, "elements")),
    (DlogSolver, "solve", "mathutils.dlog_solve", None),
    (SecureComputePool, "secure_dot", "matrix.pool_dot", None),
    (SecureComputePool, "secure_elementwise", "matrix.pool_elementwise", None),
    (SecureLinearInput, "forward", "secure_layers.input_forward", None),
    (SecureConvInput, "forward", "secure_layers.input_forward", None),
    (SecureLinearInput, "backward", "secure_layers.input_backward", None),
    (SecureConvInput, "backward", "secure_layers.input_backward", None),
    (SecureLinearInput, "reconstruct", "secure_layers.reconstruct", None),
    (SecureConvInput, "reconstruct", "secure_layers.reconstruct", None),
    (SecureSoftmaxCrossEntropy, "forward", "secure_layers.loss_forward", None),
    (SecureSoftmaxCrossEntropy, "backward", "secure_layers.loss_backward",
     None),
]


class SpanRecorder:
    """Records one span per call of every patched method.

    Spans stay in memory (appending is all a call pays) and are written
    out once, by :meth:`write_jsonl`, when the job ends.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _traced(self, original, name: str, count):
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = {"run": recorder.run_id, "id": next(recorder._ids),
                    "parent": stack[-1]["id"] if stack else None,
                    "name": name}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if count is not None:
                span["n"] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> "SpanRecorder":
        """Wrap every method in :data:`TARGETS` for the rest of the process."""
        for owner, attr, name, count in TARGETS:
            setattr(owner, attr, self._traced(getattr(owner, attr), name,
                                              count))
        return self

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans}


def in_process_layers(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced in-process job.

    ``counters`` carries the public counters read at the end of the job:
    ``engine_misses``, ``solver_builds``, ``solver_hits``,
    ``comb_tables`` and the pool's ``stats`` (or None without a pool).
    """
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    names = {span["id"]: span["name"] for span in spans}
    has_children = {span["parent"] for span in spans}
    solve_targets = 0
    for span in spans:
        name = span["name"]
        busy[name] += own[span["id"]]
        calls[name] += 1
        work[name] += span.get("n", 0)
        if name == "mathutils.dlog_solve" \
                and names.get(span["parent"]) != "mathutils.dlog_solve_many":
            solve_targets += 1
    reconstructs = calls["secure_layers.reconstruct"]
    hits = sum(1 for span in spans
               if span["name"] == "secure_layers.reconstruct"
               and span["id"] not in has_children)
    pool = counters.get("pool") or {}
    return {
        "entities.derive_febo_s": busy["entities.derive_febo"],
        "entities.febo_keys": work["entities.derive_febo"],
        "entities.derive_feip_s": busy["entities.derive_feip"],
        "entities.feip_keys": work["entities.derive_feip"],
        "entities.key_requests":
            calls["entities.derive_feip"] + calls["entities.derive_febo"],
        "entities.encrypt_s": busy["entities.encrypt"],
        "fe.feip_decrypt_rows_s": busy["fe.feip_decrypt_rows"],
        "fe.feip_rows": work["fe.feip_decrypt_rows"],
        "fe.feip_decrypt_raw_s": busy["fe.feip_decrypt_raw"],
        "fe.febo_decrypt_many_s": busy["fe.febo_decrypt_many"],
        "fe.febo_values": work["fe.febo_decrypt_many"],
        "fe.engine_prefill_s": busy["fe.engine_prefill"],
        "fe.engine_misses": counters["engine_misses"],
        "mathutils.dlog_solve_many_s": busy["mathutils.dlog_solve_many"],
        "mathutils.dlog_solve_s": busy["mathutils.dlog_solve"],
        "mathutils.dlog_targets":
            work["mathutils.dlog_solve_many"] + solve_targets,
        "mathutils.solver_builds": counters["solver_builds"],
        "mathutils.solver_hits": counters["solver_hits"],
        "mathutils.comb_tables": counters["comb_tables"],
        "matrix.pool_dot_s": busy["matrix.pool_dot"],
        "matrix.pool_elementwise_s": busy["matrix.pool_elementwise"],
        "matrix.pool_dispatches": pool.get("dispatches", 0),
        "matrix.pool_executors_created": pool.get("executors_created", 0),
        "matrix.pool_degraded_dispatches": pool.get("degraded_dispatches", 0),
        "secure_layers.input_forward_s": busy["secure_layers.input_forward"],
        # reconstruction runs inside the input layer's backward pass
        "secure_layers.input_backward_s": busy["secure_layers.input_backward"]
            + busy["secure_layers.reconstruct"],
        "secure_layers.loss_forward_s": busy["secure_layers.loss_forward"],
        "secure_layers.loss_backward_s": busy["secure_layers.loss_backward"],
        "secure_layers.reconstruct_hit_ratio":
            hits / reconstructs if reconstructs else 0.0,
        "nn.plain_s": busy["trainer.iteration"],
        "rpc.key_fetch_s": 0.0,
        "rpc.key_round_trips": 0,
        "rpc.bytes": 0,
        "rpc.retries": 0,
        "rpc.server_decrypt_s": 0.0,
        "trace_coverage_frac": min(
            (1.0 - own[span["id"]] / (span["end"] - span["start"])
             for span in spans if span["name"] == "trainer.iteration"),
            default=0.0),
    }


# -- the training server's own trace file (mlp-rpc) ----------------------------

#: Phases of ``train_batch`` that run secure computation; the rest of an
#: iteration (plain layers, optimizer) is ``nn.plain_s``.
SECURE_PHASES = {
    "secure-forward": "secure_layers.input_forward_s",
    "secure-backward": "secure_layers.input_backward_s",
    "loss-forward": "secure_layers.loss_forward_s",
    "loss-backward": "secure_layers.loss_backward_s",
}


def read_service_trace(path) -> list[dict]:
    """Spans of a ``serve-train --trace-file``, with their children.

    The service writes a span when it ends and records only its depth,
    so children are the deeper spans that ended since the previous
    span at the same or a shallower depth.  One training thread writes
    them all, so spans nest properly.
    """
    unclaimed: dict[int, list[dict]] = defaultdict(list)
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            depth = span["depth"]
            span["children"] = unclaimed.pop(depth + 1, [])
            for deeper in [d for d in unclaimed if d > depth + 1]:
                unclaimed.pop(deeper)
            unclaimed[depth].append(span)
            spans.append(span)
    return spans


def service_timings(spans: list[dict], iterations_per_epoch: int) -> dict:
    """Training timings of an ``mlp-rpc`` job from the server trace.

    ``end_ts`` is the wall-clock time the evaluated model was ready.
    """
    iterations = [s for s in spans if s["name"] == "iteration"
                  and s["depth"] == 0]
    durations = [s["dur_s"] for s in iterations]
    return {
        "first_epoch_s": sum(durations[:iterations_per_epoch]),
        "warm_s": sum(durations[iterations_per_epoch:]),
        "warm_iter_s": durations[iterations_per_epoch:],
        # evaluate() runs right after the last iteration; its key-fetch
        # and decrypt spans are the last lines of the file
        "predict_s": spans[-1]["ts"] - iterations[-1]["ts"],
        "end_ts": spans[-1]["ts"],
    }


def service_layers(spans: list[dict], trainer: dict, authority: dict,
                   client: dict, batch_size: int) -> dict[str, float]:
    """Per-layer metrics of one ``mlp-rpc`` job.

    ``trainer`` and ``authority`` are the ``counters`` of the two
    ``service-metrics`` scrapes; ``client`` holds the job process's
    own readings (``encrypt_s``, ``comb_tables``, upload ``retries``).
    """
    phase_self: dict[str, float] = defaultdict(float)
    key_fetch = decrypt = plain = 0.0
    coverage = []
    misses = 0
    iterations = 0
    for span in spans:
        if span["name"] == "key-fetch":
            key_fetch += span["dur_s"]
        elif span["name"] in ("decrypt-dlog", "pool-dispatch"):
            decrypt += span["dur_s"]
        if span["name"] != "iteration" or span["depth"] != 0:
            continue
        iterations += 1
        secure = 0.0
        for phase in span["children"]:
            if phase["name"] not in SECURE_PHASES:
                continue
            secure += phase["dur_s"]
            phase_self[phase["name"]] += phase["dur_s"] - sum(
                child["dur_s"] for child in phase["children"])
            if phase["name"] == "secure-backward":
                # one key fetch per reconstructed (not cached) sample
                misses += sum(1 for child in phase["children"]
                              if child["name"] == "key-fetch")
        plain += span["dur_s"] - secure
        coverage.append(secure / span["dur_s"])
    round_trips = trainer.get("repro_rpc_attempts_total", 0) \
        - trainer.get("repro_rpc_retries_total", 0)
    reconstructs = iterations * batch_size
    layers = {
        "entities.derive_febo_s": 0.0,
        "entities.febo_keys":
            trainer.get("repro_trainer_febo_keys_requested_total", 0),
        "entities.derive_feip_s": 0.0,
        "entities.feip_keys":
            trainer.get("repro_trainer_feip_keys_requested_total", 0),
        "entities.key_requests": round_trips,
        "entities.encrypt_s": client["encrypt_s"],
        "fe.feip_decrypt_rows_s": 0.0,
        "fe.feip_rows": 0,
        "fe.feip_decrypt_raw_s": 0.0,
        "fe.febo_decrypt_many_s": 0.0,
        "fe.febo_values": 0,
        "fe.engine_prefill_s": 0.0,
        "fe.engine_misses": 0,
        "mathutils.dlog_solve_many_s": 0.0,
        "mathutils.dlog_solve_s": 0.0,
        "mathutils.dlog_targets": 0,
        "mathutils.solver_builds":
            trainer.get("repro_dlog_solver_cache_builds_total", 0),
        "mathutils.solver_hits":
            trainer.get("repro_dlog_solver_cache_hits_total", 0),
        "mathutils.comb_tables": client["comb_tables"]
            + trainer.get("repro_fastexp_comb_tables_total", 0)
            + authority.get("repro_fastexp_comb_tables_total", 0),
        "matrix.pool_dot_s": 0.0,
        "matrix.pool_elementwise_s": 0.0,
        "matrix.pool_dispatches": 0,
        "matrix.pool_executors_created": 0,
        "matrix.pool_degraded_dispatches": 0,
        "secure_layers.reconstruct_hit_ratio":
            1.0 - misses / reconstructs if reconstructs else 0.0,
        "nn.plain_s": plain,
        "rpc.key_fetch_s": key_fetch,
        "rpc.key_round_trips": round_trips,
        "rpc.bytes": trainer.get("repro_service_traffic_bytes_total", 0)
            + authority.get("repro_service_traffic_bytes_total", 0),
        "rpc.retries": trainer.get("repro_rpc_retries_total", 0)
            + client["retries"],
        "rpc.server_decrypt_s": decrypt,
        "trace_coverage_frac": min(coverage, default=0.0),
    }
    for phase, metric in SECURE_PHASES.items():
        layers[metric] = phase_self[phase]
    return layers
