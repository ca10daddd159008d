"""Command-line interface for the CryptoNN reproduction.

Exposes the three-entity workflow as file-based commands so each role
can be run from a separate shell (or machine, with the files shipped):

    python -m repro keygen    --out authority.json
    python -m repro encrypt   --authority authority.json --out data.enc
    python -m repro train     --authority authority.json --data data.enc \
                              --model-out model.npz
    python -m repro evaluate  --authority authority.json --data data.enc \
                              --model model.npz
    python -m repro demo
    python -m repro info

The networked runtime (:mod:`repro.rpc`) replaces files with sockets --
each role becomes a long-running process:

    python -m repro serve-authority --port 9000
    python -m repro serve-train     --port 9001 --authority-port 9000 \
                                    --expected-clients 3
    python -m repro client-upload   --authority-port 9000 --server-port 9001 \
                                    --clinic 0 --clinics 3

SECURITY: the authority file holds master secret keys -- in a real
deployment it never leaves the authority.  The CLI keeps everything in
files purely to make the roles tangible; the serve-* commands keep the
master keys inside the authority process, as the paper's architecture
requires.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import sys
import threading
import time

import numpy as np

from repro import __version__
from repro.core.checkpoint import (
    load_authority,
    load_encrypted_tabular,
    load_model_weights,
    save_authority,
    save_encrypted_tabular,
    save_model_weights,
)
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics, merge_shards
from repro.mathutils.group import _PREDEFINED
from repro.nn.optimizers import SGD
# the one model builder shared with the networked training server, so
# "same seed => same model" holds across every entry point
from repro.rpc.training_service import build_mlp


# -- subcommands -----------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- CryptoNN (ICDCS 2019) reproduction")
    print(f"predefined group sizes: {sorted(_PREDEFINED)} bits")
    print("paper settings: 256-bit group, fixed-point scale 100")
    return 0


def cmd_keygen(args: argparse.Namespace) -> int:
    config = CryptoNNConfig(security_bits=args.bits, scale=args.scale)
    authority = TrustedAuthority(config, rng=random.Random(args.seed))
    # pre-generate the pairs the standard workflow needs
    authority.feip_public_key(args.features)
    authority.feip_public_key(args.classes)
    authority.febo_public_key()
    save_authority(authority, args.out)
    print(f"authority written to {args.out} "
          f"({args.bits}-bit group, scale {args.scale})")
    print("WARNING: this file contains master secret keys")
    return 0


def cmd_encrypt(args: argparse.Namespace) -> int:
    authority = load_authority(args.authority,
                               rng=random.Random(args.seed))
    shards = load_clinics(n_clinics=args.clinics,
                          samples_per_clinic=args.samples,
                          n_features=args.features, seed=args.seed)
    merged = merge_shards(shards)
    x = normalize_features(merged.x, shared_feature_scale([merged.x]))
    client = Client(authority)
    dataset = client.encrypt_tabular(x, merged.y, num_classes=args.classes)
    save_encrypted_tabular(dataset, args.out)
    print(f"encrypted {len(dataset)} samples "
          f"({args.features} features, {args.classes} classes) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if (args.resume or args.checkpoint_every) and not args.checkpoint:
        raise SystemExit("--resume/--checkpoint-every require --checkpoint")
    if args.trace_file:
        from repro.obs import GLOBAL_REGISTRY, GLOBAL_TRACER
        GLOBAL_TRACER.enable(trace_file=args.trace_file,
                             registry=GLOBAL_REGISTRY)
    authority = load_authority(args.authority, rng=random.Random(args.seed))
    dataset = load_encrypted_tabular(args.data)
    model = build_mlp(dataset.n_features, args.hidden,
                      dataset.num_classes, args.seed)
    trainer = CryptoNNTrainer(model, authority)
    history = trainer.fit(
        dataset, SGD(args.learning_rate), epochs=args.epochs,
        batch_size=args.batch_size, rng=np.random.default_rng(args.seed),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        on_batch=lambda i, loss, acc: print(
            f"  iter {i:4d}  loss={loss:.4f}  batch-acc={acc:.2f}"),
    )
    accuracy = trainer.evaluate(dataset)
    print(f"final training accuracy: {accuracy:.2%}")
    print(f"decrypt counters: {trainer.counters.snapshot()}")
    if args.trace_file:
        from repro.obs import GLOBAL_TRACER
        print("per-iteration phase totals:")
        for name, agg in sorted(GLOBAL_TRACER.phase_totals().items()):
            print(f"  {name:16s} count={agg['count']:6d} "
                  f"total={agg['total_s']:.3f}s")
        GLOBAL_TRACER.disable()
        print(f"trace spans -> {args.trace_file}")
    if args.model_out:
        save_model_weights(model, args.model_out)
        print(f"model weights -> {args.model_out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    authority = load_authority(args.authority, rng=random.Random(args.seed))
    dataset = load_encrypted_tabular(args.data)
    model = build_mlp(dataset.n_features, args.hidden,
                      dataset.num_classes, args.seed)
    load_model_weights(model, args.model)
    trainer = CryptoNNTrainer(model, authority)
    print(f"accuracy over encrypted data: {trainer.evaluate(dataset):.2%}")
    return 0


# -- networked runtime -------------------------------------------------------------

def cmd_serve_authority(args: argparse.Namespace) -> int:
    """Run the authority key service until interrupted."""
    from repro.rpc import run_authority_service

    if args.authority:
        authority = load_authority(args.authority,
                                   rng=random.Random(args.seed))
    else:
        config = CryptoNNConfig(security_bits=args.bits, scale=args.scale)
        authority = TrustedAuthority(config, rng=random.Random(args.seed))
    run_authority_service(authority, args.host, args.port)
    return 0


def cmd_serve_train(args: argparse.Namespace) -> int:
    """Run the training server; exits once training completes."""
    from repro.rpc import TrainingService

    if (args.resume or args.checkpoint_every) and not args.checkpoint:
        raise SystemExit("--resume/--checkpoint-every require --checkpoint")
    service = TrainingService(
        args.authority_host, args.authority_port,
        host=args.host, port=args.port,
        expected_clients=args.expected_clients, hidden=args.hidden,
        epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, seed=args.seed,
        batch_key_requests=not args.no_batch_keys,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        authority_timeout=args.authority_timeout,
        workers=args.workers,
        trace_file=args.trace_file,
        quorum=args.quorum,
        upload_deadline=args.upload_deadline,
        model_out=args.model_out,
    )

    async def _run() -> int:
        try:
            host, port = await service.start()
            print(f"training server listening on {host}:{port} "
                  f"(authority at "
                  f"{args.authority_host}:{args.authority_port})",
                  flush=True)
            await service.wait_done()
            if service.state == "failed":
                print(f"training failed: {service.error}", flush=True)
            else:
                print(f"training done: accuracy {service.accuracy:.2%} "
                      f"over {len(service.dataset)} encrypted samples")
                for label, log in sorted(service.connection_traffic.items()):
                    print(f"  connection {label}: "
                          f"{log.total_bytes():,} bytes "
                          f"({log.message_count()} messages)")
            if args.stay:
                # keep answering train-status (and, on success,
                # predict-request) so drivers can observe the outcome
                print("serving until interrupted", flush=True)
                await asyncio.Event().wait()
            return 1 if service.state == "failed" else 0
        finally:
            # closes the authority endpoint too, so an interrupted
            # training thread fails fast instead of blocking exit
            await service.stop()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0


def cmd_client_upload(args: argparse.Namespace) -> int:
    """Encrypt one clinic shard locally and upload it over the wire."""
    from repro.rpc import RetryPolicy, upload_shard

    policy = None
    if args.retry_attempts is not None:
        if args.retry_attempts < 1:
            raise SystemExit("--retry-attempts must be >= 1")
        policy = RetryPolicy(max_attempts=args.retry_attempts,
                             base_delay=0.05, max_delay=1.0)

    shards = load_clinics(n_clinics=args.clinics,
                          samples_per_clinic=args.samples,
                          n_features=args.features, seed=args.seed)
    if not 0 <= args.clinic < args.clinics:
        raise SystemExit(f"--clinic must be in [0, {args.clinics})")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    # normalize with the shared scale so every client scales identically
    scale = shared_feature_scale([s.x for s in shards])
    shard = shards[args.clinic]
    name = args.name or f"client-{args.clinic}"
    result = upload_shard(
        (args.authority_host, args.authority_port),
        (args.server_host, args.server_port),
        normalize_features(shard.x, scale), shard.y, args.classes,
        name=name, rng=random.Random(args.seed + args.clinic),
        workers=args.workers, policy=policy,
        chunk_bytes=args.chunk_bytes,
    )
    print(f"{name}: uploaded {result['n_samples']} encrypted samples "
          f"({result['upload_bytes']:,} bytes); server ack {result['ack']}")
    chunks = result["chunks"]
    print(f"  chunked upload: {chunks['sent']}/{chunks['count']} "
          f"chunks sent (resumed from chunk {chunks['resumed_from']})")
    retry = result["retry"]
    if retry.get("retries") or retry.get("reconnects"):
        print(f"  transport weather: {retry['retries']} retries, "
              f"{retry['drops']} drops, {retry['timeouts']} timeouts, "
              f"{retry['reconnects']} reconnects")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's AST invariant analyzer (repro.analysis)."""
    from pathlib import Path

    from repro.analysis import (
        render_json,
        render_rule_list,
        render_text,
        run_lint,
        select_rules,
    )

    if args.list_rules:
        print(render_rule_list(select_rules(None)))
        return 0
    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        report = run_lint(Path(args.root), rule_ids=rule_ids)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(render_json(report) + "\n",
                                     encoding="utf-8")
    if args.json:
        print(render_json(report))
    else:
        print(render_text(report, show_suppressed=args.show_suppressed))
    return 1 if report.failures(args.fail_on) else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape any repro service's metrics/health over the wire."""
    from repro.obs.metrics import MetricsRegistry
    from repro.rpc import RpcEndpoint, RpcError
    from repro.rpc.messages import HealthRequest, MetricsRequest

    def scrape(endpoint) -> None:
        health = endpoint.request(HealthRequest(requester="metrics-cli"))
        resp = endpoint.request(MetricsRequest(requester="metrics-cli"))
        if args.prom:
            print(MetricsRegistry().render_prometheus(resp.metrics), end="")
            return
        print(f"{resp.service} at {args.host}:{args.port}: "
              f"state={health.state} ready={health.ready}")
        snap = resp.metrics
        for section in ("counters", "gauges"):
            for name in sorted(snap.get(section, {})):
                print(f"  {name} = {snap[section][name]}")
        for name in sorted(snap.get("histograms", {})):
            hist = snap["histograms"][name]
            print(f"  {name}: count={hist['count']} "
                  f"sum={hist['sum']:.3f}s")

    failures = 0
    iterations = 0
    try:
        with RpcEndpoint(args.host, args.port, name="metrics-cli",
                         peer="service", timeout=args.timeout,
                         connect_timeout=args.timeout) as endpoint:
            while True:
                iterations += 1
                delay = args.watch
                try:
                    scrape(endpoint)
                    failures = 0
                except RpcError as exc:
                    # watch mode survives a scrape target that is down
                    # or restarting (connection refused, timeouts): note
                    # it on stderr and retry with capped backoff -- the
                    # target coming back resumes the watch seamlessly
                    if not args.watch:
                        print(f"metrics scrape failed: {exc}",
                              file=sys.stderr)
                        return 1
                    failures += 1
                    delay = min(30.0, max(args.watch,
                                          0.25 * 2 ** min(failures - 1, 7)))
                    print(f"metrics scrape failed ({exc}); "
                          f"retrying in {delay:.1f}s", file=sys.stderr)
                else:
                    if not args.watch:
                        return 0
                if args.watch_count is not None \
                        and iterations >= args.watch_count:
                    return 0 if failures == 0 else 1
                time.sleep(delay)
    except KeyboardInterrupt:
        return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    """Run authority + training server under a self-healing supervisor.

    Both children are started from durable state (an authority key file
    and a trainer checkpoint path), so a crashed -- even ``kill -9``'d
    -- child is restarted *into the same job*: the authority re-derives
    identical keys, the trainer resumes from its last checkpoint, and
    the finished model is byte-identical to an uninterrupted run.
    """
    from repro.rpc import RpcError, fetch_status
    from repro.rpc.retry import RetryPolicy
    from repro.rpc.supervisor import (
        ChildSpec,
        Supervisor,
        install_signal_handlers,
        repro_argv,
    )

    if args.port == 0 or args.authority_port == 0:
        raise SystemExit("supervise needs fixed --port/--authority-port "
                         "(children must rebind the same address)")
    if args.max_restarts < 1:
        raise SystemExit("--max-restarts must be >= 1")
    if not os.path.exists(args.authority_file):
        config = CryptoNNConfig(security_bits=args.bits, scale=args.scale)
        authority = TrustedAuthority(config, rng=random.Random(args.seed))
        save_authority(authority, args.authority_file)
        print(f"authority keys -> {args.authority_file} "
              f"({args.bits}-bit group, scale {args.scale})", flush=True)

    authority_spec = ChildSpec(
        name="authority",
        argv=repro_argv("serve-authority", "--host", args.host,
                        "--port", str(args.authority_port),
                        "--authority", args.authority_file,
                        "--seed", str(args.seed)),
        port=args.authority_port, host=args.host)
    train_argv = repro_argv(
        "serve-train", "--host", args.host, "--port", str(args.port),
        "--authority-host", args.host,
        "--authority-port", str(args.authority_port),
        "--expected-clients", str(args.expected_clients),
        "--hidden", str(args.hidden), "--epochs", str(args.epochs),
        "--batch-size", str(args.batch_size),
        "--learning-rate", str(args.learning_rate),
        "--seed", str(args.seed),
        "--checkpoint", args.checkpoint,
        # --resume + --stay make restarts heal instead of restart: the
        # job continues from the durable dataset/checkpoint, and the
        # finished server keeps answering status/predict requests
        "--resume", "--stay")
    if args.checkpoint_every is not None:
        train_argv += ["--checkpoint-every", str(args.checkpoint_every)]
    if args.workers is not None:
        train_argv += ["--workers", str(args.workers)]
    if args.quorum is not None:
        train_argv += ["--quorum", str(args.quorum)]
    if args.upload_deadline is not None:
        train_argv += ["--upload-deadline", str(args.upload_deadline)]
    if args.model_out is not None:
        train_argv += ["--model-out", args.model_out]
    if args.authority_timeout is not None:
        train_argv += ["--authority-timeout", str(args.authority_timeout)]
    trainer_spec = ChildSpec(name="trainer", argv=train_argv,
                             port=args.port, host=args.host)

    supervisor = Supervisor(
        [authority_spec, trainer_spec],
        restart_policy=RetryPolicy(max_attempts=args.max_restarts + 1,
                                   base_delay=0.2, max_delay=5.0,
                                   jitter=False),
        stable_seconds=args.stable_seconds,
        poll_interval=args.poll_interval,
        announce=lambda line: print(line, flush=True))
    install_signal_handlers(supervisor)
    exit_code = 0
    try:
        supervisor.start()
        if args.exit_when_done:
            last = {"state": None, "checked": 0.0}

            def _job_done() -> bool:
                now = time.monotonic()
                if now - last["checked"] < 1.0:
                    return False
                last["checked"] = now
                try:
                    status = fetch_status((args.host, args.port),
                                          name="supervisor", timeout=5.0)
                except RpcError:
                    return False
                last["state"] = status.state
                return status.state in ("done", "failed")

            supervisor.run(until=_job_done)
            if last["state"] == "failed":
                exit_code = 1
        else:
            supervisor.run()
        if supervisor.all_gave_up():
            print("every child crash-looped past its restart budget; "
                  "giving up", flush=True)
            exit_code = 1
    except KeyboardInterrupt:
        pass
    finally:
        snapshot = supervisor.stats_snapshot()
        supervisor.stop()
        if args.stats_file:
            with open(args.stats_file, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
            print(f"supervisor stats -> {args.stats_file}", flush=True)
    return exit_code


def cmd_demo(args: argparse.Namespace) -> int:
    """End-to-end demo in one process (no files)."""
    config = CryptoNNConfig()
    authority = TrustedAuthority(config, rng=random.Random(0))
    shard = load_clinics(n_clinics=1, samples_per_clinic=args.samples,
                         n_features=6, seed=0)[0]
    x = normalize_features(shard.x, shared_feature_scale([shard.x]))
    dataset = Client(authority).encrypt_tabular(x, shard.y, num_classes=2)
    model = build_mlp(6, 8, 2, seed=0)
    trainer = CryptoNNTrainer(model, authority)
    trainer.fit(dataset, SGD(0.5), epochs=3, batch_size=20,
                rng=np.random.default_rng(1))
    print(f"demo: trained over {len(dataset)} encrypted samples, "
          f"accuracy {trainer.evaluate(dataset):.2%}")
    return 0


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CryptoNN reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and configuration info") \
        .set_defaults(func=cmd_info)

    p = sub.add_parser("keygen", help="create an authority (master keys)")
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=64,
                   help="group size; 256 matches the paper")
    p.add_argument("--scale", type=int, default=100)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="generate + encrypt clinic data")
    p.add_argument("--authority", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clinics", type=int, default=3)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("train", help="train over an encrypted dataset")
    p.add_argument("--authority", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model-out")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint",
                   help="trainer checkpoint file (.npz); written "
                        "atomically, contains no key material")
    p.add_argument("--checkpoint-every", type=int,
                   help="write a checkpoint every N batches")
    p.add_argument("--resume", action="store_true",
                   help="continue bit-exactly from --checkpoint "
                        "(starts fresh if the file does not exist yet)")
    p.add_argument("--trace-file",
                   help="emit one JSONL span per training phase (key "
                        "fetch, pool dispatch, decrypt/dlog, forward/"
                        "backward) to this file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate saved weights")
    p.add_argument("--authority", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo", help="one-process end-to-end demo")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("serve-authority",
                       help="run the authority key service (RPC)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port (printed at startup)")
    p.add_argument("--authority",
                   help="resume master keys from a keygen file")
    p.add_argument("--bits", type=int, default=32,
                   help="group size for a fresh authority; 256 = paper")
    p.add_argument("--scale", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve_authority)

    p = sub.add_parser("serve-train",
                       help="run the training server (RPC)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--authority-host", default="127.0.0.1")
    p.add_argument("--authority-port", type=int, required=True)
    p.add_argument("--expected-clients", type=int, default=1,
                   help="train once this many shards have arrived")
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-batch-keys", action="store_true",
                   help="per-request key messages instead of one "
                        "batched envelope per iteration step")
    p.add_argument("--stay", action="store_true",
                   help="keep serving predictions after training")
    p.add_argument("--checkpoint",
                   help="durable job state: trainer checkpoint (.npz) "
                        "plus a <checkpoint>.dataset sidecar holding the "
                        "merged encrypted uploads in the encrypt --out "
                        "file format; no key material in either")
    p.add_argument("--checkpoint-every", type=int,
                   help="write a trainer checkpoint every N batches")
    p.add_argument("--resume", action="store_true",
                   help="pick an interrupted job up from --checkpoint "
                        "after process death (no re-uploads needed); "
                        "waits for uploads as usual if no job is on disk")
    p.add_argument("--authority-timeout", type=float, default=120.0,
                   help="per-request timeout (s) on the authority link; "
                        "lower it on flaky networks so stalls convert "
                        "into retried timeouts quickly")
    p.add_argument("--workers", type=int,
                   help="parallelize the decryption loops over this "
                        "many worker processes (numerically identical "
                        "to serial, just faster); omit for serial")
    p.add_argument("--trace-file",
                   help="emit one JSONL span per training phase to "
                        "this file (phase histograms are scrapeable "
                        "via `repro metrics` either way)")
    p.add_argument("--quorum", type=int,
                   help="start training at this many shards once "
                        "--upload-deadline expires instead of waiting "
                        "for all --expected-clients; stragglers after "
                        "the start get a clear rejection")
    p.add_argument("--upload-deadline", type=float, metavar="SECONDS",
                   help="straggler clock, armed when the first shard "
                        "is accepted; required by --quorum")
    p.add_argument("--model-out",
                   help="write the final model weights (.npz, atomic) "
                        "here after a successful run")
    p.set_defaults(func=cmd_serve_train)

    p = sub.add_parser("client-upload",
                       help="encrypt a clinic shard and upload it (RPC)")
    p.add_argument("--authority-host", default="127.0.0.1")
    p.add_argument("--authority-port", type=int, required=True)
    p.add_argument("--server-host", default="127.0.0.1")
    p.add_argument("--server-port", type=int, required=True)
    p.add_argument("--clinic", type=int, default=0,
                   help="which of the --clinics shards this client owns")
    p.add_argument("--clinics", type=int, default=3)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", help="client name (default client-<clinic>)")
    p.add_argument("--workers", type=int,
                   help="parallelize local encryption over this many "
                        "worker processes (offline/online nonce split); "
                        "omit for serial encryption")
    p.add_argument("--retry-attempts", type=int,
                   help="total tries per request (default 4) under the "
                        "jittered exponential-backoff retry policy")
    p.add_argument("--chunk-bytes", type=int,
                   help="split the encrypted shard into resumable "
                        "chunks of this many bytes with per-chunk acks, "
                        "so a dropped connection resumes at the last "
                        "acked chunk; omit to send one chunk holding "
                        "the whole shard")
    p.set_defaults(func=cmd_client_upload)

    p = sub.add_parser(
        "lint",
        help="run the AST invariant analyzer (crypto/lock/determinism "
             "rules) over the repo")
    p.add_argument("--root", default=".",
                   help="repo root to scan (default: cwd)")
    p.add_argument("--rules", metavar="ID[,ID...]",
                   help="comma-separated rule ids (default: all)")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report instead of text")
    p.add_argument("--fail-on", choices=["warn", "error"],
                   default="error",
                   help="exit 1 when findings at/above this severity "
                        "remain unsuppressed (default: error)")
    p.add_argument("--report", metavar="PATH",
                   help="also write the JSON report to PATH")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include suppressed findings in text output")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("metrics",
                       help="scrape a running service's metrics/health")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--watch", type=float, metavar="SECONDS",
                   help="re-scrape every SECONDS until interrupted")
    p.add_argument("--prom", action="store_true",
                   help="Prometheus text exposition instead of the "
                        "human-readable summary")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--watch-count", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "supervise",
        help="run authority + training server under a self-healing "
             "supervisor (auto-restart with backoff, resume from "
             "durable state)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--authority-port", type=int, required=True)
    p.add_argument("--port", type=int, required=True,
                   help="training server port (fixed, so restarted "
                        "children rebind the same address)")
    p.add_argument("--authority-file", required=True,
                   help="authority key file; created on first run, "
                        "reloaded on every (re)start so restarted "
                        "authorities derive identical keys")
    p.add_argument("--checkpoint", required=True,
                   help="trainer checkpoint path; restarts resume the "
                        "job from it bit-exactly")
    p.add_argument("--checkpoint-every", type=int,
                   help="write a trainer checkpoint every N batches")
    p.add_argument("--expected-clients", type=int, default=1)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bits", type=int, default=32,
                   help="group size when creating a fresh authority "
                        "file; 256 = paper")
    p.add_argument("--scale", type=int, default=100)
    p.add_argument("--workers", type=int)
    p.add_argument("--quorum", type=int,
                   help="see serve-train --quorum")
    p.add_argument("--upload-deadline", type=float, metavar="SECONDS",
                   help="see serve-train --upload-deadline")
    p.add_argument("--model-out",
                   help="final model weights file (.npz) written by the "
                        "trainer child on success")
    p.add_argument("--authority-timeout", type=float,
                   help="trainer child's per-request timeout on the "
                        "authority link")
    p.add_argument("--max-restarts", type=int, default=4,
                   help="restarts per failure streak before the "
                        "supervisor gives a child up (backoff between "
                        "restarts is capped-exponential)")
    p.add_argument("--stable-seconds", type=float, default=5.0,
                   help="uptime after which a child's failure streak "
                        "resets")
    p.add_argument("--poll-interval", type=float, default=0.25)
    p.add_argument("--stats-file",
                   help="write a JSON supervision report (restarts, "
                        "crashes, probe failures per child) here on "
                        "exit")
    p.add_argument("--exit-when-done", action="store_true",
                   help="poll the trainer's train-status and exit once "
                        "the job is done instead of supervising forever")
    p.set_defaults(func=cmd_supervise)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if threading.current_thread() is threading.main_thread():
        # A plain SIGTERM (how process drivers stop the serve-*
        # commands) must exit through SystemExit so the pool teardown
        # below still runs; the default handler would strand executor
        # workers as orphans.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return args.func(args)
    finally:
        # Tear down any shared compute pool before returning.  When a
        # CLI entry point runs inside a multiprocessing child (as in
        # examples/rpc_loopback.py), the child's _bootstrap joins all
        # live non-daemon children *before* atexit handlers run -- so
        # leaving executor workers for the atexit hook would deadlock
        # the child's exit.
        from repro.matrix.parallel import shutdown_compute_pools

        shutdown_compute_pools()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
