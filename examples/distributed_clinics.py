#!/usr/bin/env python3
"""Distributed data sources over the real networked runtime.

Demonstrates the paper's "Distributed data source" property (Section
III-A) on actual sockets: the authority key service and the training
server run as separate threaded services, five clinic clients encrypt
locally and upload their shards over TCP, and the training server
drives the secure training loop while fetching function keys over the
wire -- one batched key envelope per iteration step instead of the
k x n x |w| request fan-out (Section IV-B2).

The anti-inference label mapping still applies: the server's view of
the labels is a secret permutation distributed by the authority
alongside the public keys, so only the clients can interpret the
predictions they fetch back from the server.

Run:  python examples/distributed_clinics.py
"""

import random

import numpy as np

from repro.core import CryptoNNConfig, TrustedAuthority
from repro.core import protocol
from repro.data import (
    LabelMapper,
    load_clinics,
    normalize_features,
    shared_feature_scale,
)
from repro.rpc import (
    AuthorityService,
    RpcEndpoint,
    TrainingService,
    upload_shard,
)
from repro.rpc.messages import PredictRequest


def main() -> None:
    # -- the authority: master keys never leave this service ---------------
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(7))
    authority_service = AuthorityService(authority)
    auth_host, auth_port = authority_service.start()
    print(f"authority key service at {auth_host}:{auth_port}")

    # -- the training server: trains once all five clinics upload ----------
    train_service = TrainingService(
        auth_host, auth_port, expected_clients=5,
        hidden=10, epochs=4, batch_size=30, learning_rate=0.5, seed=0)
    srv_host, srv_port = train_service.start()
    print(f"training server at {srv_host}:{srv_port}\n")

    # five clinics of different sizes, non-IID shards
    shards = load_clinics(n_clinics=5, samples_per_clinic=60, n_features=6,
                          clinic_shift=0.5, seed=11)
    scale = shared_feature_scale([s.x for s in shards])

    # the clients share the label-mapping secret; the AUTHORITY distributes
    # it alongside the public keys, the server never sees it
    mapper = LabelMapper(2, np.random.default_rng(12345))
    print(f"secret label permutation (client-side only): "
          f"{mapper.permutation.tolist()}\n")

    for i, shard in enumerate(shards):
        result = upload_shard(
            (auth_host, auth_port), (srv_host, srv_port),
            normalize_features(shard.x, scale), shard.y, 2,
            name=f"clinic-{i}", label_mapper=mapper,
            rng=random.Random(100 + i))
        print(f"clinic-{i}: {len(shard)} records -> "
              f"{result['upload_bytes']:,} bytes over the socket")

    # -- wait for the remote training run to finish ------------------------
    train_service.wait_done(timeout=600)
    if train_service.state != "done":
        raise RuntimeError(f"remote training failed: {train_service.error}")
    print(f"\nserver-side accuracy (in wire-label space): "
          f"{train_service.accuracy:.2%}")

    # per-iteration key traffic, as actually framed on the wire
    server_logs = [
        log for label, log in
        authority_service.connection_traffic.items()
        if label.startswith(protocol.SERVER)
    ]
    batch_up = sum(log.total_bytes(
        kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST) for log in server_logs)
    batch_msgs = sum(log.message_count(
        protocol.KIND_FEIP_KEY_BATCH_REQUEST) for log in server_logs)
    print(f"feip key requests: {batch_msgs} batched envelopes, "
          f"{batch_up:,} bytes server->authority")

    # -- prediction: only a client can interpret the output -----------------
    with RpcEndpoint(srv_host, srv_port, name="clinic-0",
                     peer=protocol.SERVER) as endpoint:
        scores = endpoint.request(
            PredictRequest(indices=list(range(8)), requester="clinic-0"))
    wire_classes = np.array([int(np.argmax(row)) for row in scores.scores])
    logical = mapper.unmap_labels(wire_classes)
    truth = mapper.unmap_labels(
        train_service.dataset.eval_labels[:8])
    print("\nsample  server sees (wire)  client decodes  ground truth")
    for i in range(8):
        print(f"{i:6d}  {wire_classes[i]:^18d}  {logical[i]:^14d}  "
              f"{truth[i]:^12d}")
    print("\nThe wire labels are meaningless without the clients' secret "
          "permutation -- the paper's mitigation for label inference.")

    train_service.stop()
    authority_service.stop()


if __name__ == "__main__":
    main()
