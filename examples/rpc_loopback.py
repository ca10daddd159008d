#!/usr/bin/env python3
"""Loopback multi-process demo of the networked runtime.

Runs the three CryptoNN entities as genuinely separate OS processes
talking over 127.0.0.1 sockets:

* an **authority key service** process (owns every master secret),
* a **training server** process (drives the secure training loop,
  fetching function keys over the wire),
* one **client process per clinic** (encrypts locally, uploads the
  ciphertexts).

Afterwards the driver replays the identical run in-process (same seeds,
same entry point) and checks that both paths reach the *same* accuracy:
decryption recovers exact integers, so the transport cannot change the
floating-point trajectory.

With ``--chaos-rate > 0`` the training server's authority link is
routed through a :class:`~repro.rpc.chaos.ChaosProxy` (hosted by the
driver) that injects connection resets, stalls, truncations, header
corruption and latency from the deterministic schedule seeded by
``--chaos-seed`` -- and the accuracy comparison against the clean
in-process run still holds, because the retry layer resends idempotent
key requests until they land.

Run:  python examples/rpc_loopback.py [--chaos-rate 0.2 --chaos-seed 7]
"""

import argparse
import multiprocessing
import random
import time

from repro.cli import main as repro_cli
from repro.core import CryptoNNConfig, TrustedAuthority
from repro.core.encdata import merge_encrypted_tabular
from repro.core.entities import Client
from repro.data import load_clinics, normalize_features, shared_feature_scale
from repro.rpc import (
    ChaosConfig,
    ChaosProxy,
    RpcEndpoint,
    ServiceThread,
    free_port,
    run_training,
    wait_for_port,
)
from repro.rpc.messages import MetricsRequest, TrainStatusRequest

N_CLIENTS = 2
SAMPLES = 20
FEATURES = 4
HIDDEN = 6
EPOCHS = 2
BATCH_SIZE = 10
LEARNING_RATE = 0.5
SEED = 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="loopback multi-process CryptoNN demo")
    parser.add_argument(
        "--chaos-rate", type=float, default=0.0,
        help="inject transport faults on the training server's "
             "authority link at this total rate (spread evenly over "
             "resets, stalls, truncations, header corruption and "
             "latency); 0 disables the chaos proxy")
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the deterministic fault schedule -- the same "
             "seed and rate reproduce the same faults on the same "
             "exchanges")
    parser.add_argument(
        "--chunk-bytes", type=int, default=512,
        help="deliver each upload as resumable fingerprinted chunks of "
             "this size (a dropped client resumes at the last acked "
             "chunk); 0 sends the whole shard as one chunk")
    return parser.parse_args(argv)


def print_metrics_summary(snapshot: dict) -> None:
    """Digest a ``service-metrics`` scrape of the training server.

    Surfaces the counter families the run exercised: rpc retry
    weather, decryption-pool utilization, the encrypt/decrypt engine
    counters uploaded by the clients, and the per-phase timing
    histograms from the paper's cost decomposition.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    hists = snapshot.get("histograms", {})
    print("\ntraining-server metrics scrape:")
    print(f"  rpc: {counters.get('repro_rpc_attempts_total', 0)} attempts, "
          f"{counters.get('repro_rpc_retries_total', 0)} retries, "
          f"{counters.get('repro_rpc_timeouts_total', 0)} timeouts, "
          f"{counters.get('repro_rpc_reconnects_total', 0)} reconnects")
    print(f"  pool: {counters.get('repro_pool_dispatches_total', 0)} "
          f"dispatches on {gauges.get('repro_pool_workers', 0):.0f} workers "
          f"({counters.get('repro_pool_degraded_dispatches_total', 0)} "
          f"degraded)")
    print(f"  client engines: "
          f"{counters.get('repro_client_engine_precomputed_total', 0)} "
          f"nonces precomputed, "
          f"{counters.get('repro_client_engine_consumed_total', 0)} consumed, "
          f"{counters.get('repro_client_engine_misses_total', 0)} misses")
    print(f"  trainer: {counters.get('repro_trainer_feip_decrypts_total', 0)} "
          f"feip + {counters.get('repro_trainer_febo_decrypts_total', 0)} "
          f"febo decrypts")
    phases = []
    for name, hist in sorted(hists.items()):
        if name.startswith("repro_phase_seconds"):
            phase = name.split('phase="', 1)[-1].rstrip('"}')
            phases.append(f"{phase} {hist['sum']:.2f}s/{hist['count']}")
    if phases:
        print("  phases: " + ", ".join(phases))


def _drive_remote_run(train_port: int, proxy) -> float:
    """Poll the training server to completion, then scrape its metrics.

    One endpoint for the whole poll loop: one TCP connection, not one
    per poll.  Returns the remote run's accuracy.
    """
    deadline = time.monotonic() + 300
    status = None
    metrics = None
    with RpcEndpoint("127.0.0.1", train_port, name="driver",
                     peer="server") as endpoint:
        while time.monotonic() < deadline:
            try:
                status = endpoint.request(TrainStatusRequest())
            except Exception:
                status = None  # server busy starting up; retry
            if status is not None and status.state in ("done", "failed"):
                break
            time.sleep(0.3)
        # scrape the server's ops surface before it is torn down
        try:
            metrics = endpoint.request(MetricsRequest(requester="driver"))
        except Exception:
            metrics = None
    if status is None or status.state != "done":
        detail = status.detail.get("error") if status else "no status"
        raise RuntimeError(
            f"remote training did not finish: "
            f"{status.state if status else 'unreachable'} ({detail})")
    print(f"\ndistributed run (3+ processes): accuracy "
          f"{status.accuracy:.2%}")
    if proxy is not None:
        summary = proxy.fault_summary()
        injected = summary["drops"] + summary["timeouts"] \
            + summary["injected_delay"]
        print(f"chaos weather: {injected} faults injected over "
              f"{summary['exchanges']} exchanges "
              f"({summary['drops']} drops, {summary['timeouts']} stalls, "
              f"{summary['injected_delay']} delays)")
    if metrics is not None:
        print_metrics_summary(metrics.metrics)
    return status.accuracy


def main(argv=None) -> None:
    args = parse_args(argv)
    ctx = multiprocessing.get_context("fork")
    auth_port, train_port = free_port(), free_port()

    # -- three entities, three (or more) processes --------------------------
    authority_proc = ctx.Process(
        target=repro_cli,
        args=(["serve-authority", "--port", str(auth_port),
               "--seed", str(SEED)],),
        daemon=True)
    authority_proc.start()
    wait_for_port("127.0.0.1", auth_port)

    # optionally interpose the chaos proxy on the authority link: the
    # training server dials the proxy, the proxy dials the authority
    proxy_thread = None
    proxy = None
    server_auth_port = auth_port
    if args.chaos_rate > 0:
        proxy = ChaosProxy(
            "127.0.0.1", auth_port, seed=args.chaos_seed,
            config=ChaosConfig.uniform(args.chaos_rate, stall_s=2.0))
        proxy_thread = ServiceThread(proxy)
        _, server_auth_port = proxy_thread.start()
        print(f"chaos proxy on the authority link: rate "
              f"{args.chaos_rate:.0%}, seed {args.chaos_seed}")

    # server and clients run pooled (--workers 2): pooled decryption /
    # encryption is numerically identical to serial and puts the pool
    # and engine counter families on the metrics scrape below.  Pool
    # workers are child processes, so these two cannot be daemonic --
    # the finally block below reaps them instead.
    train_proc = ctx.Process(
        target=repro_cli,
        args=(["serve-train", "--port", str(train_port),
               "--authority-port", str(server_auth_port),
               "--expected-clients", str(N_CLIENTS),
               "--hidden", str(HIDDEN), "--epochs", str(EPOCHS),
               "--batch-size", str(BATCH_SIZE),
               "--learning-rate", str(LEARNING_RATE),
               # stalls must convert into quick retried timeouts, not
               # two-minute hangs
               "--authority-timeout", "2.0",
               "--workers", "2",
               "--seed", str(SEED), "--stay"],))
    train_proc.start()
    wait_for_port("127.0.0.1", train_port)

    client_procs = []
    for i in range(N_CLIENTS):
        upload_argv = ["client-upload", "--authority-port", str(auth_port),
                       "--server-port", str(train_port),
                       "--clinic", str(i), "--clinics", str(N_CLIENTS),
                       "--samples", str(SAMPLES), "--features", str(FEATURES),
                       "--workers", "2",
                       "--seed", str(SEED)]
        if args.chunk_bytes > 0:
            upload_argv += ["--chunk-bytes", str(args.chunk_bytes)]
        proc = ctx.Process(target=repro_cli, args=(upload_argv,))
        proc.start()
        client_procs.append(proc)
    try:
        for i, proc in enumerate(client_procs):
            proc.join(timeout=120)
            if proc.exitcode != 0:
                raise RuntimeError(
                    f"client-{i} upload failed (exit code {proc.exitcode}); "
                    f"see its output above")

        remote_accuracy = _drive_remote_run(train_port, proxy)
    finally:
        for proc in [train_proc, *client_procs]:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=10)
        authority_proc.terminate()
        authority_proc.join(timeout=10)
        if proxy_thread is not None:
            proxy_thread.stop()

    # -- identical run in one process: same seeds, same entry point ---------
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    shards = load_clinics(n_clinics=N_CLIENTS, samples_per_clinic=SAMPLES,
                          n_features=FEATURES, seed=SEED)
    scale = shared_feature_scale([s.x for s in shards])
    parts = []
    for i, shard in enumerate(shards):
        client = Client(authority, name=f"client-{i}")
        parts.append(client.encrypt_tabular(
            normalize_features(shard.x, scale), shard.y, 2))
    merged = merge_encrypted_tabular(parts)
    _, _, local_accuracy = run_training(
        merged, authority, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE, seed=SEED)
    print(f"in-process run (one process):   accuracy {local_accuracy:.2%}")
    print(f"identical across transports:    "
          f"{remote_accuracy == local_accuracy}")


if __name__ == "__main__":
    main()
