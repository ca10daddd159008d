"""One job of the end-to-end benchmark, in a fresh process.

``run.py`` starts this module once per job (``python -m
benchmarks.e2e.job``), so solver caches, comb tables, pool workers and
``ru_maxrss`` never carry over from one job to the next.  A job sets up
one workload, runs its whole recipe once -- encrypt, fit, evaluate --
checks the trained model against the plaintext replay in
``reference.py`` and writes its measurements to ``job-<index>.json`` in
``--out``.

Set-up time runs from ``--spawned-at`` (the wall-clock time ``run.py``
started this process), so it covers interpreter start and the imports
below.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import random
import resource
import signal
import subprocess
import sys
import time

import numpy as np

from repro.core import (
    CryptoCNNTrainer,
    CryptoNNConfig,
    CryptoNNTrainer,
    TrustedAuthority,
)
from repro.core.checkpoint import save_model_weights
from repro.core.entities import Client, Server
from repro.data import (
    load_clinics,
    load_synth_digits,
    normalize_features,
    shared_feature_scale,
)
from repro.mathutils.dlog import GLOBAL_SOLVER_CACHE
from repro.nn.lenet import build_lenet_small
from repro.nn.optimizers import SGD
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.rpc import RetryPolicy, RpcEndpoint, build_mlp, free_port, \
    upload_shard, wait_for_port
from repro.rpc.messages import HealthRequest, MetricsRequest, \
    TrainStatusRequest

from .reference import EVAL_BATCH, Replay, model_weights
from .spans import (
    SpanRecorder,
    in_process_layers,
    read_service_trace,
    service_layers,
    service_timings,
)
from .speed import SpeedSamples

#: The machine has two cores: the pooled workload uses both, no more.
POOL_WORKERS = 2
LEARNING_RATE = 0.5
#: mlp-rpc uploads its shard as resumable chunks of this many bytes.
UPLOAD_CHUNK_BYTES = 1 << 18
#: mlp-rpc polls ``train-status`` this often while the server trains.
STATUS_POLL_S = 0.2
#: Ceiling on one service start-up or one status wait (a wedged service
#: fails the job instead of hanging it; run.py also kills overdue jobs).
SERVICE_TIMEOUT_S = 120.0
#: Probe a starting service's port every 10 ms.  ``wait_for_port``'s own
#: jittered backoff (up to 250 ms between probes) would add its random
#: lag to ``setup_s``.
PORT_POLL = RetryPolicy(max_attempts=1_000_000, base_delay=0.01,
                        max_delay=0.01, jitter=False,
                        deadline=SERVICE_TIMEOUT_S)


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem size of one workload family."""

    bits: int
    samples: int
    epochs: int
    batch: int
    hidden: int
    features: int = 0   # tabular workloads
    canvas: int = 0     # image workloads


#: ``full`` is what the benchmark measures.  Jobs are kept short (3-5 s
#: on a 2-core machine) so that one run holds several of them and the
#: median over jobs smooths out bursts of noise.  ``toy`` (32-bit group,
#: a handful of samples) exists for the smoke test.
SIZES = {
    "full": {
        "mlp": Size(bits=256, samples=64, features=64, hidden=32,
                    epochs=3, batch=32),
        "cnn": Size(bits=256, samples=16, canvas=8, hidden=32,
                    epochs=3, batch=8),
    },
    "toy": {
        "mlp": Size(bits=32, samples=16, features=8, hidden=4,
                    epochs=2, batch=8),
        "cnn": Size(bits=32, samples=8, canvas=8, hidden=8,
                    epochs=2, batch=4),
    },
}


def _family(workload: str) -> str:
    return "cnn" if workload.startswith("cnn") else "mlp"


#: Label classes: binary clinic diagnoses, ten synthetic digits.
CLASSES = {"mlp": 2, "cnn": 10}


def make_data(family: str, size: Size, seed: int):
    """The workload's plaintext inputs and labels."""
    if family == "cnn":
        train, _ = load_synth_digits(n_train=size.samples, n_test=1,
                                     canvas=size.canvas, seed=seed)
        return train.x, train.y
    shard = load_clinics(n_clinics=1, samples_per_clinic=size.samples,
                         n_features=size.features, seed=seed)[0]
    return normalize_features(shard.x, shared_feature_scale([shard.x])), \
        shard.y


def build_model(family: str, size: Size, seed: int):
    if family == "cnn":
        return build_lenet_small(np.random.default_rng(seed),
                                 image_size=size.canvas,
                                 num_classes=CLASSES[family],
                                 hidden=size.hidden)
    # the model every runtime entry point (and serve-train) trains
    return build_mlp(size.features, size.hidden, CLASSES[family], seed)


def check_against_replay(family: str, size: Size, seed: int, inputs, labels,
                         weights: dict, epoch_losses: list, accuracy: float,
                         batch_losses: list | None = None) -> list[str]:
    """Problems found comparing a secure run with its plaintext replay."""
    replay = Replay(build_model(family, size, seed), inputs, labels,
                    CLASSES[family], CryptoNNConfig(security_bits=size.bits))
    expected_batch, expected_epoch = replay.fit(size.epochs, size.batch,
                                                LEARNING_RATE, seed)
    expected_accuracy = replay.evaluate()
    expected = model_weights(replay.model)
    problems = []
    if sorted(weights) != sorted(expected):
        problems.append(f"parameter names {sorted(weights)} != "
                        f"{sorted(expected)}")
    else:
        problems += [f"{key} differs from the plaintext replay"
                     for key in sorted(expected)
                     if not np.array_equal(weights[key], expected[key])]
    if batch_losses is not None and batch_losses != expected_batch:
        problems.append("batch losses differ from the plaintext replay")
    if list(epoch_losses) != expected_epoch:
        problems.append(f"epoch losses {list(epoch_losses)} != replay "
                        f"{expected_epoch}")
    if accuracy != expected_accuracy:
        problems.append(f"accuracy {accuracy} != replay {expected_accuracy}")
    return problems


def _iterations_per_epoch(size: Size) -> int:
    return math.ceil(size.samples / size.batch)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timings(wall: dict, slowdown: dict, speed: SpeedSamples) -> dict:
    """Speed-normalised times (see ``speed.py``) plus the raw record.

    Each wall-clock time (or list of times) is divided by the machine
    slowdown sampled around its phase.
    """
    timings = {key: [t / slowdown[key] for t in value]
               if isinstance(value, list) else value / slowdown[key]
               for key, value in wall.items()}
    timings["wall"] = wall
    timings["slowdown"] = speed.values
    return timings


# -- in-process workloads -------------------------------------------------------

def run_in_process(workload: str, size: Size, seed: int, spawned_at: float,
                   recorder: SpanRecorder | None, out: pathlib.Path,
                   tag: str) -> dict:
    family = _family(workload)
    classes = CLASSES[family]
    workers = POOL_WORKERS if workload == "mlp-pooled" else None
    authority = TrustedAuthority(CryptoNNConfig(security_bits=size.bits),
                                 rng=random.Random(seed))
    server = Server(authority, workers=workers)
    speed = SpeedSamples(cpus=workers or 1)
    try:
        model = build_model(family, size, seed)
        trainer_cls = CryptoCNNTrainer if family == "cnn" else CryptoNNTrainer
        trainer = trainer_cls(model, authority, pool=server.compute_pool)
        setup_s = time.time() - spawned_at
        speed.take()

        inputs, labels = make_data(family, size, seed)
        client = Client(authority, workers=workers)
        start = time.perf_counter()
        if family == "cnn":
            conv = model.layers[0]
            dataset = client.encrypt_images(
                inputs, labels, classes, filter_size=conv.filter_size,
                stride=conv.stride, padding=conv.padding)
        else:
            dataset = client.encrypt_tabular(inputs, labels, classes)
        encrypt_s = time.perf_counter() - start
        speed.take()

        marks = [time.perf_counter()]
        history = trainer.fit(
            dataset, SGD(LEARNING_RATE), epochs=size.epochs,
            batch_size=size.batch, rng=np.random.default_rng(seed),
            on_batch=lambda *_: marks.append(time.perf_counter()))
        speed.take()
        start = time.perf_counter()
        accuracy = trainer.evaluate(dataset)
        predict_s = time.perf_counter() - start
        time_to_model_s = time.time() - spawned_at - speed.spent_s
        speed.take()
        peak_rss_mb = _rss_mb(resource.RUSAGE_SELF)

        pool = server.compute_pool
        pool_stats = pool.stats if pool is not None else None
        key_bytes = sum(n for kind, n in authority.traffic.by_kind().items()
                        if "-key-" in kind)
    finally:
        speed.close()
        server.close()

    per_epoch = _iterations_per_epoch(size)
    latencies = np.diff(marks)
    weights_path = out / f"{tag}-weights.npz"
    save_model_weights(model, weights_path)
    problems = check_against_replay(
        family, size, seed, inputs, labels, model_weights(model),
        history.epoch_loss, accuracy, batch_losses=history.batch_loss)
    degraded = pool_stats["degraded_dispatches"] if pool_stats else 0
    if pool_stats and pool_stats["degraded"]:
        problems.append(f"compute pool degraded: {pool_stats}")
    fit_slowdown = speed.around(1, 2)
    result = {
        **_timings({
            "setup_s": setup_s,
            "encrypt_s": encrypt_s,
            "first_epoch_s": float(marks[per_epoch] - marks[0]),
            "warm_s": float(marks[-1] - marks[per_epoch]),
            "warm_iter_s": latencies[per_epoch:].tolist(),
            "predict_s": predict_s,
            "time_to_model_s": time_to_model_s,
        }, {
            "setup_s": speed.around(0),
            "encrypt_s": speed.around(0, 1),
            "first_epoch_s": fit_slowdown,
            "warm_s": fit_slowdown,
            "warm_iter_s": fit_slowdown,
            "predict_s": speed.around(2, 3),
            "time_to_model_s": speed.around(0, 1, 2, 3),
        }, speed),
        "peak_rss_mb": peak_rss_mb,
        "iterations": len(latencies),
        "key_bytes": key_bytes,
        # iterations + the encryption + evaluate batches + pool dispatches
        "attempted": len(latencies) + 1
                     + math.ceil(size.samples / EVAL_BATCH)
                     + (pool_stats["dispatches"] if pool_stats else 0),
        "failed": degraded,
        "problems": problems,
        "weights_file": str(weights_path),
    }
    if recorder is not None:
        cache = GLOBAL_SOLVER_CACHE.stats()
        result["layers"] = in_process_layers(recorder.spans, {
            "engine_misses": (client.engine.stats()["misses"]
                              if client.engine is not None else 0),
            "solver_builds": cache["builds"],
            "solver_hits": cache["hits"],
            "comb_tables": _comb_tables(),
            "pool": pool_stats,
        })
    return result


def _comb_tables() -> int:
    return GLOBAL_REGISTRY.snapshot()["counters"].get(
        "repro_fastexp_comb_tables_total", 0)


# -- mlp-rpc: authority and trainer as child OS processes -----------------------

def _spawn_service(argv: list[str], log: pathlib.Path) -> subprocess.Popen:
    with open(log, "w", encoding="utf-8") as fh:
        return subprocess.Popen([sys.executable, "-m", "repro", *argv],
                                stdout=fh, stderr=subprocess.STDOUT)


def _stop_services(services: list[subprocess.Popen]) -> None:
    # SIGINT is the services' "serve until interrupted" exit; on SIGTERM
    # serve-authority now and then hangs in its shutdown
    for proc in services:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
    for proc in services:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_rpc(size: Size, seed: int, spawned_at: float,
            recorder: SpanRecorder | None, out: pathlib.Path,
            tag: str) -> dict:
    trace_file = out / f"{tag}-service-trace.jsonl"
    weights_path = out / f"{tag}-weights.npz"
    auth_port, train_port = free_port(), free_port()
    services = [
        _spawn_service(["serve-authority", "--port", str(auth_port),
                        "--bits", str(size.bits), "--seed", str(seed)],
                       out / f"{tag}-authority.log"),
        _spawn_service(["serve-train", "--port", str(train_port),
                        "--authority-port", str(auth_port),
                        "--epochs", str(size.epochs),
                        "--batch-size", str(size.batch),
                        "--hidden", str(size.hidden),
                        "--learning-rate", str(LEARNING_RATE),
                        "--seed", str(seed),
                        "--trace-file", str(trace_file),
                        "--model-out", str(weights_path), "--stay"],
                       out / f"{tag}-trainer.log"),
    ]
    try:
        for port in (auth_port, train_port):
            wait_for_port("127.0.0.1", port, policy=PORT_POLL)
        with RpcEndpoint("127.0.0.1", auth_port, name="bench",
                         peer="authority") as authority, \
                RpcEndpoint("127.0.0.1", train_port, name="bench",
                            peer="server") as trainer:
            for endpoint in (authority, trainer):
                endpoint.request(HealthRequest(requester="bench"))
            setup_s = time.time() - spawned_at
            # the services are idle here and once training is done; in
            # between the reference would compete with them for the CPUs
            speed = SpeedSamples()
            speed.take()
            reference_delay_s = speed.spent_s

            inputs, labels = make_data("mlp", size, seed)
            start = time.perf_counter()
            upload = upload_shard(
                ("127.0.0.1", auth_port), ("127.0.0.1", train_port),
                inputs, labels, CLASSES["mlp"], name="client-0",
                rng=random.Random(seed), chunk_bytes=UPLOAD_CHUNK_BYTES)
            encrypt_s = time.perf_counter() - start

            deadline = time.monotonic() + SERVICE_TIMEOUT_S
            while True:
                status = trainer.request(TrainStatusRequest(requester="bench"))
                if status.state in ("done", "failed"):
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(f"training still {status.state!r}")
                time.sleep(STATUS_POLL_S)
            if status.state == "failed":
                raise RuntimeError(f"serve-train failed: "
                                   f"{status.detail.get('error')}")
            speed.take()
            trainer_metrics = trainer.request(
                MetricsRequest(requester="bench")).metrics["counters"]
            authority_metrics = authority.request(
                MetricsRequest(requester="bench")).metrics["counters"]
    finally:
        _stop_services(services)
    # the larger of the two (reaped) service processes
    peak_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)

    spans = read_service_trace(trace_file)
    wall = service_timings(spans, _iterations_per_epoch(size))
    iterations = len(wall["warm_iter_s"]) + _iterations_per_epoch(size)
    wall.update(setup_s=setup_s, encrypt_s=encrypt_s,
                time_to_model_s=wall.pop("end_ts") - spawned_at
                - reference_delay_s)
    with np.load(weights_path) as archive:
        weights = {key: archive[key] for key in archive.files}
    problems = check_against_replay(
        "mlp", size, seed, inputs, labels, weights,
        status.detail["epoch_loss"], status.accuracy)
    slowdown = dict.fromkeys(wall, speed.around(0, 1))
    slowdown.update(setup_s=speed.around(0), encrypt_s=speed.around(0))
    result = {
        **_timings(wall, slowdown, speed),
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb,
        "key_bytes": authority_metrics["repro_service_traffic_bytes_total"],
        # iterations + the upload + evaluate batches
        "attempted": iterations + 1 + math.ceil(size.samples / EVAL_BATCH),
        "failed": 0,
        "problems": problems,
        "weights_file": str(weights_path),
    }
    if recorder is not None:
        result["layers"] = service_layers(
            spans, trainer_metrics, authority_metrics,
            {"encrypt_s": sum(s["end"] - s["start"] for s in recorder.spans
                              if s["name"] == "entities.encrypt"),
             "comb_tables": _comb_tables(),
             "retries": upload["retry"]["retries"]},
            size.batch)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    size = SIZES[args.size][_family(args.workload)]
    run_id = f"{args.workload}-{args.seed}-{args.index}-{os.getpid()}"
    recorder = SpanRecorder(run_id).install() if args.trace else None
    tag = f"job-{args.index}"
    common = (size, args.seed, args.spawned_at, recorder, args.out, tag)
    try:
        if args.workload == "mlp-rpc":
            result = run_rpc(*common)
        else:
            result = run_in_process(args.workload, *common)
    finally:
        if recorder is not None:
            recorder.write_jsonl(args.out / f"{tag}-spans.jsonl")
    if "layers" in result:
        # layer seconds are speed-normalised like the end-to-end times,
        # with the job's mean slowdown
        slowdown = sum(result["slowdown"]) / len(result["slowdown"])
        result["layers"] = {
            name: value / slowdown if name.endswith("_s") else value
            for name, value in result["layers"].items()}
    result.update(workload=args.workload, seed=args.seed, index=args.index,
                  traced=args.trace, samples=size.samples,
                  epochs=size.epochs, batch=size.batch)
    (args.out / f"{tag}.json").write_text(json.dumps(result),
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
