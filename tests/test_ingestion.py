"""Hardened-ingestion and resumable-upload tests.

Adversarial side: garbage ciphertexts (non-subgroup elements,
out-of-range values, implausible shapes) are rejected at the unpack
boundary with the service still serving; connection floods hit the
accept cap instead of starting a thread per attempt, while connections
under it are answered without limit or loss; a malicious *server*
sending oversized frames is bounded on the client side of the framing
too.

Resumable side: chunked uploads with per-chunk acks resume at the last
acked chunk after a client dropout (no re-sent chunks), are idempotent
by shard fingerprint, and -- composed with a ChaosProxy dropping frames
between client and training server -- still land byte-exact training
results whenever the full quorum eventually arrives.
"""

from __future__ import annotations

import dataclasses
import errno
import random
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import serialization as ser
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
    ShardChunk,
    ShardResumeQuery,
    TrainingService,
    plan_shard_chunks,
    run_training,
    upload_planned_chunks,
    upload_shard,
)
from repro.rpc import service as service_mod
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
    auth_service = AuthorityService(authority)
    auth_addr = auth_service.start()
    service = TrainingService(
        *auth_addr, expected_clients=1, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    train_addr = service.start()
    yield authority, service, auth_addr, train_addr
    service.stop()
    auth_service.stop()


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
        authority, service, auth_addr, train_addr = stack
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

    def test_residue_above_q_is_rejected(self, stack):
        """Elements travel in signed form, ``min(x, p - x)``.  The
        negation ``p - v`` of an honest element ``v`` that is not itself
        a residue is a genuine subgroup element, but it lies above q, so
        it is not a canonical encoding: rejected too."""
        authority, service, auth_addr, train_addr = stack
        group = authority.params
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            sample = next(s for s in dataset.samples
                          if pow(s.features_ip.ct0, group.q, group.p) != 1)
            residue = group.p - sample.features_ip.ct0
            assert residue > group.q and pow(residue, group.q, group.p) == 1
            sample.features_ip = dataclasses.replace(
                sample.features_ip, ct0=residue)
            with pytest.raises(RpcRemoteError) as err:
                _send_shard(train_addr, dataset, remote.params)
            assert "subgroup" in str(err.value)
        assert service.state == "waiting"
        assert not service._shards

    def test_out_of_range_element_is_rejected(self, stack):
        authority, service, auth_addr, train_addr = stack
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
        _, service, auth_addr, train_addr = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            with pytest.raises(RpcRemoteError) as err:
                _send_shard(train_addr, dataset, remote.params,
                            n_features=0)
        assert "implausible" in str(err.value)
        assert service.state == "waiting"

    def test_valid_upload_still_passes_validation(self, stack):
        """The hardened unpack path accepts every honest ciphertext."""
        _, service, auth_addr, train_addr = stack
        x, y = _make_shards()[0]
        result = upload_shard(auth_addr, train_addr, x, y, 2,
                              name="clinic-0", rng=random.Random(100))
        assert result["ack"]["received"] == len(x)
        # without chunk_bytes the whole shard travels as one chunk
        assert result["chunks"] == {"count": 1, "sent": 1,
                                    "resumed_from": 0}
        service.wait_done(timeout=120)
        assert service.state == "done", service.error


@pytest.fixture(scope="module")
def packed_shard():
    """``(meta, body, params)`` of one honest shard on the toy group."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    x, y = _make_shards(n_clients=1, samples=5, features=3)[0]
    dataset = Client(authority).encrypt_tabular(x, y, 2)
    meta, body = ser.pack_encrypted_tabular(dataset, authority.params)
    return meta, body, authority.params


def _tampered(body, params, values: dict[int, int]) -> bytes:
    """``body`` with element ``index`` set to ``value`` for each item."""
    width = ser.element_size_bytes(params)
    data = bytearray(body)
    for index, value in values.items():
        at = index * width
        data[at:at + width] = value.to_bytes(width, "big")
    return bytes(data)


def _unpack_error(meta, body, params) -> str:
    with pytest.raises(ValueError) as err:
        ser.unpack_encrypted_tabular(meta, body, params)
    return str(err.value)


@pytest.mark.timeout_guard(60)
class TestPooledValidation:
    """Every element of an upload is range-checked inline, wherever in
    the body it sits: the ends and both sides of the middle."""

    @pytest.mark.parametrize("value", ["zero", "p", "p-1"])
    @pytest.mark.parametrize("where", ["first", "run-end", "run-start",
                                       "last"])
    def test_tampered_element_raises_the_inline_error(
            self, packed_shard, value, where):
        meta, body, params = packed_shard
        count = len(body) // ser.element_size_bytes(params)
        half = -(-count // 2)
        index = {"first": 0, "run-end": half - 1, "run-start": half,
                 "last": count - 1}[where]
        element = {"zero": 0, "p": params.p, "p-1": params.p - 1}[value]
        message = _unpack_error(
            meta, _tampered(body, params, {index: element}), params)
        assert ("subgroup" if value == "p-1" else "outside (0, p)") \
            in message

    def test_lowest_bad_element_wins(self, packed_shard):
        """An element above q early in the body and an out-of-range one
        late in it: the error names the first."""
        meta, body, params = packed_shard
        count = len(body) // ser.element_size_bytes(params)
        bad = _tampered(body, params, {3: params.p - 1, count - 2: 0})
        assert "above q" in _unpack_error(meta, bad, params)

    def test_service_counts_the_elements_it_validated(self, stack):
        """Uploads arrive outside the training tracer's window, so a
        counter shows the ingestion work on a metrics scrape."""
        authority, _, auth_addr, train_addr = stack

        def validated() -> int:
            return GLOBAL_REGISTRY.snapshot()["counters"].get(
                "repro_upload_validated_elements_total", 0)

        before = validated()
        x, y = _make_shards()[0]
        upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                     rng=random.Random(100))
        params = authority.params
        assert validated() - before == ser.encrypted_tabular_wire_size(
            len(x), x.shape[1], 2, params) // ser.element_size_bytes(params)


# ---------------------------------------------------------------------------
# hardened ingestion: connection floods and concurrent requests
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(60)
class TestConnectionHardening:
    def test_connection_flood_is_capped(self, monkeypatch):
        monkeypatch.setattr(service_mod, "MAX_CONNECTIONS", 2)
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        service = AuthorityService(authority)
        host, port = service.start()
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
            service.stop()

    def test_flood_never_runs_more_connection_threads_than_the_cap(
            self, monkeypatch):
        """20 raw connects at once against a cap of 2: the in-flight
        gauge and the live connection threads stay at 2 or below
        throughout, and ``stop()`` leaves no connection thread."""
        monkeypatch.setattr(service_mod, "MAX_CONNECTIONS", 2)
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        service = AuthorityService(authority)
        host, port = service.start()
        prefix = f"AuthorityService:{port} conn"

        def live_threads() -> int:
            return sum(t.name.startswith(prefix)
                       for t in threading.enumerate())

        def in_flight() -> int:
            return service._obs_collect()[
                "repro_service_connections_in_flight"]

        peaks: list[tuple[int, int]] = []
        flooding = threading.Event()
        flooding.set()

        def sample() -> None:
            while flooding.is_set():
                peaks.append((in_flight(), live_threads()))
                time.sleep(0.001)

        sampler = threading.Thread(target=sample)
        sampler.start()
        flood = []
        try:
            flood = [socket.create_connection((host, port), timeout=5)
                     for _ in range(20)]
            deadline = time.monotonic() + 10
            while service.connection_rejections < 18:
                assert time.monotonic() < deadline, "flood not refused"
                time.sleep(0.01)
            assert service.connection_rejections == 18
            assert (in_flight(), live_threads()) == (2, 2)
        finally:
            flooding.clear()
            sampler.join(timeout=10)
            for sock in flood:
                sock.close()
            service.stop()
        assert not sampler.is_alive()
        assert peaks and max(max(pair) for pair in peaks) <= 2
        assert live_threads() == 0

    def test_accept_survives_running_out_of_descriptors(self, monkeypatch):
        """An ``accept()`` that fails while the service runs (EMFILE:
        out of file descriptors) is retried after a back-off, not taken
        for the stop signal: the next client is still served."""
        failed = []
        accept = socket.socket.accept

        def out_of_descriptors(sock):
            if not failed:
                failed.append(sock)
                raise OSError(errno.EMFILE, "Too many open files")
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        service = AuthorityService(authority)
        host, port = service.start()
        try:
            with RpcEndpoint(host, port, name="next", peer="authority",
                             timeout=5,
                             policy=RetryPolicy(max_attempts=1)) as endpoint:
                assert endpoint.request(
                    HealthRequest(requester="next")).ready
            assert len(failed) == 1
        finally:
            service.stop()
        assert not service._accept_thread.is_alive()

    def test_one_connection_serves_any_number_of_requests(self):
        """No per-connection request quota: one connection keeps being
        answered, and the service closes none of its connections."""
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        service = AuthorityService(authority)
        host, port = service.start()
        try:
            with RpcEndpoint(host, port, name="busy", peer="authority",
                             policy=RetryPolicy(max_attempts=1)) as busy:
                for _ in range(20):
                    assert busy.request(HealthRequest(requester="busy")).ready
                assert busy.stats.reconnects == 0
                assert busy.stats.drops == 0
            assert service.requests_served == 20
            assert service.connection_rejections == 0
        finally:
            service.stop()

    def test_concurrent_connections_lose_no_request(self):
        """Four connections send requests at once, each from its own
        thread, while a health probe comes in: every request is answered
        correctly and counted once."""
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        service = AuthorityService(authority)
        host, port = service.start()
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
            with RpcEndpoint(host, port, name="probe",
                             peer="authority") as probe:
                assert probe.request(HealthRequest(
                    requester="probe")).ready
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [True] * 12
            assert service.requests_served == 13
            for e in endpoints:
                e.close()
        finally:
            service.stop()


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
# concurrent uploads
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(180)
def test_concurrent_uploads_start_training_once_byte_exact():
    """Four clients upload at once, each on its own thread and
    connection: every shard lands, training starts exactly once, and
    the run equals the in-process reference byte for byte.

    Pauses after each accepted shard and before training starts, and
    a short thread switch interval, widen the windows in which
    unserialized uploads would lose a shard or both see a full quorum
    and start training twice."""
    shards = _make_shards(n_clients=4)
    ref_weights, ref_history, ref_accuracy = _clean_reference(shards)
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    auth_service = AuthorityService(authority)
    auth_addr = auth_service.start()
    service = TrainingService(
        *auth_addr, expected_clients=4, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    starts = []
    arm_upload_deadline = service._arm_upload_deadline
    start_training = service._start_training

    def paused_arm() -> None:
        time.sleep(0.2)
        arm_upload_deadline()

    def counted_start() -> None:
        starts.append(threading.current_thread().name)
        time.sleep(0.1)
        start_training()

    service._arm_upload_deadline = paused_arm
    service._start_training = counted_start
    train_addr = service.start()
    barrier = threading.Barrier(4)
    errors = []

    def upload(i: int) -> None:
        x, y = shards[i]
        try:
            barrier.wait(timeout=30)
            upload_shard(auth_addr, train_addr, x, y, 2,
                         name=f"clinic-{i}", rng=random.Random(100 + i),
                         chunk_bytes=256)
        except Exception as exc:  # reported below, in the test thread
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=upload, args=(i,))
                   for i in range(4)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=120)
            assert not client.is_alive()
        sys.setswitchinterval(switch_interval)
        assert not errors, errors
        service.wait_done(timeout=120)
        assert len(starts) == 1
        assert sorted(name for name, _ in service._shards) == [
            f"clinic-{i}" for i in range(4)]
        _assert_identical_run(service, ref_weights, ref_history,
                              ref_accuracy)
    finally:
        sys.setswitchinterval(switch_interval)
        service.stop()
        auth_service.stop()


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
        _, service, auth_addr, train_addr = stack
        x, y = shards[0]
        result = upload_shard(auth_addr, train_addr, x, y, 2,
                              name="clinic-0", rng=random.Random(100),
                              chunk_bytes=256)
        assert result["chunks"]["sent"] == result["chunks"]["count"] >= 2
        assert result["ack"]["complete"] is True
        service.wait_done(timeout=120)
        _assert_identical_run(service, ref_weights, ref_history,
                              ref_accuracy)

    def test_dropout_resumes_at_last_acked_chunk(self, stack):
        """A client dying mid-upload and coming back resumes exactly
        past the chunks the server acked -- none are re-sent."""
        _, service, auth_addr, train_addr = stack
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
        _, service, auth_addr, train_addr = stack
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
        service.wait_done(timeout=120)
        assert service.state == "done", service.error

    def test_fingerprint_mismatch_rejects_assembly(self, stack):
        _, service, auth_addr, train_addr = stack
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

    def test_unpacking_a_shard_holds_up_no_other_upload(self, stack):
        """While one client's complete shard is checked and unpacked,
        another client's resume query and chunk are answered at once."""
        _, service, auth_addr, train_addr = stack
        remote, dataset = _encrypt_one(auth_addr, _make_shards()[0])
        with remote:
            meta, fingerprint, chunks = plan_shard_chunks(
                dataset, remote.params, 256)
        unpack = service._unpack_assembly
        entered, release = threading.Event(), threading.Event()

        def held_unpack(asm):
            entered.set()
            assert release.wait(timeout=30)
            return unpack(asm)

        service._unpack_assembly = held_unpack
        results = []

        def upload() -> None:
            with RpcEndpoint(*train_addr, name="clinic-0",
                             peer="server") as server:
                results.append(upload_planned_chunks(
                    server, name="clinic-0", meta=meta,
                    fingerprint=fingerprint, chunks=chunks))

        uploader = threading.Thread(target=upload)
        uploader.start()
        try:
            assert entered.wait(timeout=30)
            with RpcEndpoint(*train_addr, name="clinic-9", peer="server",
                             timeout=5,
                             policy=RetryPolicy(max_attempts=1)) as other:
                probe = other.request(ShardResumeQuery(
                    fingerprint="cd" * 32, count=2,
                    client_name="clinic-9"))
                assert probe.info["next_index"] == 0
                ack = other.request(ShardChunk(
                    fingerprint="cd" * 32, index=0, count=2,
                    chunk=b"x" * 64, meta={}, client_name="clinic-9"))
                assert ack.info == {"received": 1, "next_index": 1,
                                    "complete": False}
        finally:
            release.set()
            uploader.join(timeout=60)
        assert not uploader.is_alive()
        assert results and results[0]["ack"]["complete"] is True
        assert [name for name, _ in service._shards] == ["clinic-0"]

    def test_mid_stream_chunk_without_assembly_is_rejected(self, stack):
        _, _, _, train_addr = stack
        with RpcEndpoint(*train_addr, name="clinic-9", peer="server",
                         policy=RetryPolicy(max_attempts=1)) as server:
            with pytest.raises(RpcRemoteError) as err:
                server.request(ShardChunk(
                    fingerprint="ab" * 32, index=3, count=8,
                    chunk=b"x" * 64, client_name="clinic-9"))
        assert "restart from chunk 0" in str(err.value)

    def test_resume_query_for_unknown_upload_starts_from_zero(self, stack):
        _, _, _, train_addr = stack
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
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=3, quorum=2, upload_deadline=1.0,
            hidden=HIDDEN, epochs=EPOCHS, batch_size=BATCH_SIZE,
            learning_rate=LR, seed=SEED)
        train_addr = service.start()
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
            service.wait_done(timeout=180)
            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
            counters = GLOBAL_REGISTRY.snapshot()["counters"]
            assert counters.get("repro_upload_stragglers_total", 0) >= 1
        finally:
            service.stop()
            auth_service.stop()

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
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=2, hidden=HIDDEN, epochs=EPOCHS,
            batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
        train_addr = service.start()
        proxy = ChaosProxy(*train_addr, seed=11,
                           config=ChaosConfig(reset_before=0.1,
                                              reset_after=0.1))
        proxy_addr = proxy.start()
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
            service.wait_done(timeout=240)
            _assert_identical_run(service, ref_weights, ref_history,
                                  ref_accuracy)
        finally:
            proxy.stop()
            service.stop()
            auth_service.stop()
