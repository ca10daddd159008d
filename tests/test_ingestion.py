"""Hardened-ingestion and resumable-upload tests.

Adversarial side: garbage ciphertexts (non-subgroup elements,
out-of-range values, implausible shapes) are rejected at the unpack
boundary with the service still serving; connection floods and request
storms hit the accept/quota/backpressure bounds instead of the event
loop; a malicious *server* sending oversized frames is bounded on the
client side of the framing too.

Resumable side: chunked uploads with per-chunk acks resume at the last
acked chunk after a client dropout (no re-sent chunks), are idempotent
by shard fingerprint, and -- composed with a ChaosProxy dropping frames
between client and training server -- still land byte-exact training
results whenever the full quorum eventually arrives.
"""

from __future__ import annotations

import dataclasses
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.encdata import merge_encrypted_tabular
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.rpc import (
    AuthorityService,
    ChaosConfig,
    ChaosProxy,
    HealthRequest,
    RemoteAuthority,
    RetryPolicy,
    RpcEndpoint,
    RpcError,
    RpcRemoteError,
    ServiceThread,
    ShardChunk,
    ShardResumeQuery,
    TrainingService,
    plan_shard_chunks,
    run_training,
    upload_planned_chunks,
    upload_shard,
)
from repro.rpc.framing import MAX_FRAME_BYTES, MAX_HEADER_BYTES
from repro.rpc.messages import Ack, PublicParamsRequest, shard_fingerprint

HIDDEN, EPOCHS, BATCH_SIZE, LR, SEED = 6, 2, 10, 0.5, 0

FAST_POLICY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def _make_shards(n_clients=2, samples=15, features=4):
    shards = load_clinics(n_clinics=n_clients, samples_per_clinic=samples,
                          n_features=features, seed=3)
    scale = shared_feature_scale([s.x for s in shards])
    return [(normalize_features(s.x, scale), s.y) for s in shards]


def _clean_reference(shards):
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    parts = [
        Client(authority, name=f"clinic-{i}").encrypt_tabular(x, y, 2)
        for i, (x, y) in enumerate(shards)
    ]
    merged = merge_encrypted_tabular(parts)
    trainer, history, accuracy = run_training(
        merged, authority, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    return _weights_of(trainer), history, accuracy


def _weights_of(trainer):
    return [
        {name: np.array(value, copy=True)
         for name, value in layer.params.items()}
        for layer in trainer.model.layers
        if getattr(layer, "params", None)
    ]


def _assert_identical_run(service, ref_weights, ref_history, ref_accuracy):
    assert service.state == "done", service.error
    assert service.accuracy == ref_accuracy
    got = _weights_of(service.trainer)
    assert len(got) == len(ref_weights)
    for got_layer, ref_layer in zip(got, ref_weights):
        assert set(got_layer) == set(ref_layer)
        for name in ref_layer:
            assert np.array_equal(got_layer[name], ref_layer[name])
    assert service.history.batch_loss == ref_history.batch_loss
    assert service.history.epoch_loss == ref_history.epoch_loss


@pytest.fixture()
def stack():
    """Authority + training service (1 expected client) on live sockets."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    auth_thread = ServiceThread(AuthorityService(authority))
    auth_addr = auth_thread.start()
    service = TrainingService(
        *auth_addr, expected_clients=1, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    train_thread = ServiceThread(service)
    train_addr = train_thread.start()
    yield authority, service, auth_addr, train_addr, train_thread
    train_thread.stop()
    auth_thread.stop()


def _encrypt_one(auth_addr, shard, name="clinic-0", seed=100):
    """Client-side encryption of one shard against a live authority."""
    x, y = shard
    remote = RemoteAuthority(*auth_addr, name=name,
                             rng=random.Random(seed))
    client = Client(remote, name=name)
    dataset = client.encrypt_tabular(x, y, 2)
    return remote, dataset


def _send_shard(train_addr, dataset, params, **meta_overrides):
    """Upload ``dataset`` as one chunk whose meta carries the overrides;
    the fingerprint is recomputed over them, as a forger would."""
    meta, _, chunks = plan_shard_chunks(dataset, params)
    meta.update(meta_overrides)
    with RpcEndpoint(*train_addr, name="clinic-0", peer="server",
                     policy=FAST_POLICY) as server:
        return upload_planned_chunks(
            server, name="clinic-0", meta=meta,
            fingerprint=shard_fingerprint(meta, b"".join(chunks)),
            chunks=chunks)


# ---------------------------------------------------------------------------
# hardened ingestion: garbage ciphertexts
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(120)
class TestCiphertextValidation:
    def test_non_subgroup_element_is_rejected(self, stack):
        """p-1 is a quadratic non-residue mod a safe prime: a ciphertext
        carrying it must be rejected at unpack, before it can poison a
        training run (or leak via an invalid-element oracle)."""
        authority, service, auth_addr, train_addr, _ = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            bad = dataset.samples[0].features_ip
            dataset.samples[0].features_ip = dataclasses.replace(
                bad, ct0=authority.params.p - 1)
            with pytest.raises(RpcRemoteError) as err:
                _send_shard(train_addr, dataset, remote.params)
            assert "subgroup" in str(err.value)
        # the service survived the poison attempt and still answers
        assert service.state == "waiting"
        assert not service._shards

    def test_out_of_range_element_is_rejected(self, stack):
        authority, service, auth_addr, train_addr, _ = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            label = dataset.labels[0]
            bad_bo = list(label.onehot_bo)
            bad_bo[0] = dataclasses.replace(bad_bo[0], cmt=0)
            label.onehot_bo = tuple(bad_bo)
            with pytest.raises(RpcRemoteError) as err:
                _send_shard(train_addr, dataset, remote.params)
            assert "outside (0, p)" in str(err.value)
        assert service.state == "waiting"

    def test_implausible_shape_is_rejected(self, stack):
        """A forged header claiming absurd dimensions must fail the
        sanity check, not drive a giant allocation loop."""
        _, service, auth_addr, train_addr, _ = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            with pytest.raises(RpcRemoteError) as err:
                _send_shard(train_addr, dataset, remote.params,
                            n_features=0)
        assert "implausible" in str(err.value)
        assert service.state == "waiting"

    def test_valid_upload_still_passes_validation(self, stack):
        """The hardened unpack path accepts every honest ciphertext."""
        _, service, auth_addr, train_addr, train_thread = stack
        x, y = _make_shards()[0]
        result = upload_shard(auth_addr, train_addr, x, y, 2,
                              name="clinic-0", rng=random.Random(100))
        assert result["ack"]["received"] == len(x)
        # without chunk_bytes the whole shard travels as one chunk
        assert result["chunks"] == {"count": 1, "sent": 1,
                                    "resumed_from": 0}
        train_thread.call(lambda: service.wait_done(timeout=120),
                          timeout=150)
        assert service.state == "done", service.error


# ---------------------------------------------------------------------------
# hardened ingestion: floods, quotas, backpressure
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(60)
class TestConnectionHardening:
    def test_connection_flood_is_capped(self):
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        thread = ServiceThread(AuthorityService(authority,
                                                max_connections=2))
        host, port = thread.start()
        service = thread.service
        try:
            # two held connections fill the accept cap
            held = [RpcEndpoint(host, port, name=f"held-{i}", peer="authority")
                    for i in range(2)]
            for endpoint in held:
                endpoint.request(HealthRequest(requester=endpoint.name))
            # the flood: raw connects past the cap are closed immediately
            rejected = 0
            for _ in range(5):
                with socket.create_connection((host, port), timeout=5) as s:
                    s.settimeout(5)
                    if s.recv(1) == b"":
                        rejected += 1
            assert rejected == 5
            assert service.connection_rejections >= 5
            # the held connections keep working through the flood
            for endpoint in held:
                resp = endpoint.request(
                    HealthRequest(requester=endpoint.name))
                assert resp.ready
            for endpoint in held:
                endpoint.close()
            # slots freed: a new connection is admitted again
            with RpcEndpoint(host, port, name="late",
                             peer="authority") as late:
                assert late.request(HealthRequest(requester="late")).ready
        finally:
            thread.stop()

    def test_request_quota_closes_greedy_connection(self):
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        thread = ServiceThread(
            AuthorityService(authority, max_requests_per_connection=3))
        host, port = thread.start()
        service = thread.service
        try:
            with RpcEndpoint(host, port, name="greedy", peer="authority",
                             policy=RetryPolicy(max_attempts=1)) as greedy:
                for _ in range(3):
                    greedy.request(HealthRequest(requester="greedy"))
                with pytest.raises(RpcRemoteError) as err:
                    greedy.request(HealthRequest(requester="greedy"))
                assert err.value.error_type == "QuotaExceeded"
            assert service.quota_rejections == 1
            # a fresh connection gets a fresh quota
            with RpcEndpoint(host, port, name="next",
                             peer="authority") as endpoint:
                assert endpoint.request(
                    HealthRequest(requester="next")).ready
        finally:
            thread.stop()

    def test_inflight_bound_serializes_load_but_loses_nothing(self):
        """max_inflight=1 queues concurrent dispatches instead of
        running them in parallel; every request still gets answered,
        and health probes bypass the bound entirely."""
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        thread = ServiceThread(AuthorityService(authority, max_inflight=1))
        host, port = thread.start()
        service = thread.service
        try:
            endpoints = [RpcEndpoint(host, port, name=f"c{i}",
                                     peer="authority") for i in range(4)]
            results = []

            def _hammer(endpoint):
                for _ in range(3):
                    resp = endpoint.request(PublicParamsRequest(
                        etas=(2,), include_febo=False,
                        requester=endpoint.name))
                    results.append(resp.group == authority.params)

            threads = [threading.Thread(target=_hammer, args=(e,))
                       for e in endpoints]
            for t in threads:
                t.start()
            # probes stay answerable while the dispatch path is bounded
            with RpcEndpoint(host, port, name="probe",
                             peer="authority") as probe:
                assert probe.request(HealthRequest(
                    requester="probe")).ready
            for t in threads:
                t.join(timeout=30)
            assert results == [True] * 12
            for e in endpoints:
                e.close()
        finally:
            thread.stop()


# ---------------------------------------------------------------------------
# client-side framing bounds (malicious server)
# ---------------------------------------------------------------------------

class _EvilServer:
    """Accepts connections, reads a bit, answers with raw bytes."""

    def __init__(self, response: bytes):
        self.response = response
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self.address = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                try:
                    conn.settimeout(2)
                    conn.recv(65536)
                    conn.sendall(self.response)
                    time.sleep(0.05)
                except OSError:
                    pass

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.mark.timeout_guard(60)
class TestClientFramingBounds:
    def _assert_client_rejects(self, response: bytes):
        evil = _EvilServer(response)
        try:
            start = time.monotonic()
            with RpcEndpoint(*evil.address, name="victim", peer="evil",
                             timeout=5.0, policy=FAST_POLICY) as endpoint:
                with pytest.raises(RpcError):
                    endpoint.request(HealthRequest(requester="victim"))
                # bounded *before* buffering the advertised payload:
                # the frame/header limit fails fast, no 128 MiB reads
                assert time.monotonic() - start < 10.0
                assert endpoint.stats.drops >= 1
                assert endpoint.stats.giveups == 1
        finally:
            evil.stop()

    def test_oversized_frame_length_is_rejected(self):
        self._assert_client_rejects(
            struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_oversized_header_length_is_rejected(self):
        # a small frame whose header-length field claims > the header
        # cap: json-decode of tens of MB must never be attempted
        payload = struct.pack(">I", MAX_HEADER_BYTES + 1) + b"abcd"
        self._assert_client_rejects(
            struct.pack(">I", len(payload)) + payload)


# ---------------------------------------------------------------------------
# resumable chunked uploads
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(180)
class TestChunkedUpload:
    def test_chunked_upload_trains_byte_exact(self, stack):
        """A many-chunk upload is indistinguishable from the one-chunk
        default: same merged dataset, same final weights."""
        shards = _make_shards(n_clients=1)
        ref_weights, ref_history, ref_accuracy = _clean_reference(shards)
        _, service, auth_addr, train_addr, train_thread = stack
        x, y = shards[0]
        result = upload_shard(auth_addr, train_addr, x, y, 2,
                              name="clinic-0", rng=random.Random(100),
                              chunk_bytes=256)
        assert result["chunks"]["sent"] == result["chunks"]["count"] >= 2
        assert result["ack"]["complete"] is True
        train_thread.call(lambda: service.wait_done(timeout=120),
                          timeout=150)
        _assert_identical_run(service, ref_weights, ref_history,
                              ref_accuracy)

    def test_dropout_resumes_at_last_acked_chunk(self, stack):
        """A client dying mid-upload and coming back resumes exactly
        past the chunks the server acked -- none are re-sent."""
        _, service, auth_addr, train_addr, _ = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            meta, fingerprint, chunks = plan_shard_chunks(
                dataset, remote.params, 128)
        count = len(chunks)
        assert count >= 4
        sent_before_drop = count // 2
        with RpcEndpoint(*train_addr, name="clinic-0",
                         peer="server") as first_try:
            for index in range(sent_before_drop):
                ack = first_try.request(ShardChunk(
                    fingerprint=fingerprint, index=index, count=count,
                    chunk=chunks[index],
                    meta=meta if index == 0 else None,
                    client_name="clinic-0"))
                assert ack.info["next_index"] == index + 1
            # the connection dies here (context exit = client dropout)
        resumed_before = GLOBAL_REGISTRY.snapshot()["counters"].get(
            "repro_upload_resumed_chunks_total", 0)
        with RpcEndpoint(*train_addr, name="clinic-0",
                         peer="server") as second_try:
            result = upload_planned_chunks(
                second_try, name="clinic-0", meta=meta,
                fingerprint=fingerprint, chunks=chunks)
        assert result["resumed_from"] == sent_before_drop
        assert result["sent"] == count - sent_before_drop
        assert result["ack"]["complete"] is True
        resumed_after = GLOBAL_REGISTRY.snapshot()["counters"].get(
            "repro_upload_resumed_chunks_total", 0)
        assert resumed_after - resumed_before == sent_before_drop
        assert [name for name, _ in service._shards] == ["clinic-0"]

    def test_duplicate_chunked_upload_is_acknowledged_not_retrained(
            self, stack):
        _, service, auth_addr, train_addr, train_thread = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            meta, fingerprint, chunks = plan_shard_chunks(
                dataset, remote.params, 256)
        with RpcEndpoint(*train_addr, name="clinic-0",
                         peer="server") as server:
            first = upload_planned_chunks(
                server, name="clinic-0", meta=meta,
                fingerprint=fingerprint, chunks=chunks)
            assert first["sent"] == len(chunks)
            # training may already be running; the duplicate must be
            # acknowledged from the fingerprint record without a single
            # chunk crossing the wire again
            again = upload_planned_chunks(
                server, name="clinic-0", meta=meta,
                fingerprint=fingerprint, chunks=chunks)
        assert again["sent"] == 0
        assert again["ack"]["duplicate"] is True
        train_thread.call(lambda: service.wait_done(timeout=120),
                          timeout=150)
        assert service.state == "done", service.error

    def test_fingerprint_mismatch_rejects_assembly(self, stack):
        _, service, auth_addr, train_addr, _ = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            meta, fingerprint, chunks = plan_shard_chunks(
                dataset, remote.params, 1 << 20)
        forged = "0" * len(fingerprint)
        with RpcEndpoint(*train_addr, name="clinic-0", peer="server",
                         policy=RetryPolicy(max_attempts=1)) as server:
            with pytest.raises(RpcRemoteError) as err:
                upload_planned_chunks(
                    server, name="clinic-0", meta=meta,
                    fingerprint=forged, chunks=chunks)
            assert "fingerprint" in str(err.value)
            # the poisoned assembly was dropped; the honest upload works
            result = upload_planned_chunks(
                server, name="clinic-0", meta=meta,
                fingerprint=fingerprint, chunks=chunks)
        assert result["ack"]["complete"] is True

    def test_mid_stream_chunk_without_assembly_is_rejected(self, stack):
        _, _, _, train_addr, _ = stack
        with RpcEndpoint(*train_addr, name="clinic-9", peer="server",
                         policy=RetryPolicy(max_attempts=1)) as server:
            with pytest.raises(RpcRemoteError) as err:
                server.request(ShardChunk(
                    fingerprint="ab" * 32, index=3, count=8,
                    chunk=b"x" * 64, client_name="clinic-9"))
        assert "restart from chunk 0" in str(err.value)

    def test_resume_query_for_unknown_upload_starts_from_zero(self, stack):
        _, _, _, train_addr, _ = stack
        with RpcEndpoint(*train_addr, name="clinic-9",
                         peer="server") as server:
            ack = server.request(ShardResumeQuery(
                fingerprint="cd" * 32, count=4, client_name="clinic-9"))
        assert isinstance(ack, Ack)
        assert ack.info == {"accepted": False, "next_index": 0,
                            "received": 0}


# ---------------------------------------------------------------------------
# quorum / deadline straggler policy
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(240)
class TestQuorumPolicy:
    def test_quorum_start_with_straggler_rejection(self):
        """3 expected, quorum 2: once the upload deadline passes, the
        run starts with the two landed shards (byte-exact against a
        2-shard reference) and the straggler gets a clear rejection."""
        shards = _make_shards(n_clients=3)
        ref_weights, ref_history, ref_accuracy = _clean_reference(
            shards[:2])
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=3, quorum=2, upload_deadline=1.0,
            hidden=HIDDEN, epochs=EPOCHS, batch_size=BATCH_SIZE,
            learning_rate=LR, seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
        try:
            for i in (0, 1):
                x, y = shards[i]
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}", rng=random.Random(100 + i))
            assert service.state == "waiting"  # quorum alone is not enough
            deadline = time.monotonic() + 30
            while service.state == "waiting" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert service.state != "waiting", \
                "deadline never started the quorum run"
            x, y = shards[2]
            with pytest.raises(RpcRemoteError) as err:
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name="clinic-2", rng=random.Random(102),
                             policy=RetryPolicy(max_attempts=1))
            assert "deadline" in str(err.value)
            assert "resubmit" in str(err.value)
            train_thread.call(lambda: service.wait_done(timeout=180),
                              timeout=200)
            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
            counters = GLOBAL_REGISTRY.snapshot()["counters"]
            assert counters.get("repro_upload_stragglers_total", 0) >= 1
        finally:
            train_thread.stop()
            auth_thread.stop()

    def test_quorum_requires_deadline(self):
        with pytest.raises(ValueError):
            TrainingService("127.0.0.1", 1, expected_clients=3, quorum=2)
        with pytest.raises(ValueError):
            TrainingService("127.0.0.1", 1, expected_clients=2, quorum=0,
                            upload_deadline=1.0)


# ---------------------------------------------------------------------------
# chunked uploads through chaos: still byte-exact
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(300)
class TestChunkedThroughChaos:
    def test_chunked_upload_through_chaos_proxy_is_byte_exact(self):
        """Chunk frames dropped/reset by a chaos proxy between client
        and training server are retried and deduplicated; with the full
        quorum eventually landing, training matches the clean run
        byte-for-byte."""
        shards = _make_shards(n_clients=2)
        ref_weights, ref_history, ref_accuracy = _clean_reference(shards)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=2, hidden=HIDDEN, epochs=EPOCHS,
            batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
        proxy = ChaosProxy(*train_addr, seed=11,
                           config=ChaosConfig(reset_before=0.1,
                                              reset_after=0.1))
        proxy_thread = ServiceThread(proxy)
        proxy_addr = proxy_thread.start()
        try:
            results = []
            for i, (x, y) in enumerate(shards):
                results.append(upload_shard(
                    auth_addr, proxy_addr, x, y, 2, name=f"clinic-{i}",
                    rng=random.Random(100 + i), chunk_bytes=256,
                    policy=RetryPolicy(max_attempts=8, base_delay=0.01,
                                       max_delay=0.1)))
            for result in results:
                assert result["ack"]["complete"] is True
            assert proxy.fault_summary()["drops"] > 0, \
                "chaos never actually fired"
            train_thread.call(lambda: service.wait_done(timeout=240),
                              timeout=260)
            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
        finally:
            proxy_thread.stop()
            train_thread.stop()
            auth_thread.stop()
