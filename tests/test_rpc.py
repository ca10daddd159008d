"""The networked runtime: framing, messages, services, end-to-end.

The loopback end-to-end tests run the authority key service and the
training server as threaded services on real 127.0.0.1 sockets (each
started and stopped in-process) with client agents uploading encrypted
shards -- three entities, real bytes.  Every socket test carries the
``timeout_guard`` marker so a transport bug can never hang the suite.
"""

import dataclasses
import functools
import gc
import multiprocessing
import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.config import CryptoNNConfig
from repro.core.encdata import merge_encrypted_tabular
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import normalize_features, shared_feature_scale
from repro.data.tabular import load_clinics
from repro.fe.errors import UnsupportedOperationError
from repro.fe.keys import FeboFunctionKey, FeipFunctionKey
from repro.rpc import (
    AuthorityService,
    RemoteAuthority,
    RetryPolicy,
    RpcEndpoint,
    RpcError,
    RpcRemoteError,
    RpcTimeoutError,
    TrainingService,
    WireContext,
    fetch_status,
    free_port,
    plan_shard_chunks,
    run_training,
    upload_shard,
    wait_for_port,
)
from repro.rpc import framing
from repro.rpc import messages as msgs
from repro.mathutils.group import GroupParams
from repro.matrix.parallel import (
    SecureComputePool,
    get_compute_pool,
    service_workers,
    shutdown_compute_pools,
)
from repro.rpc import client_agent
from repro.rpc.authority_service import POOL_MIN_BITS
from repro.rpc.client_agent import CLIENT_POOL_MIN_BITS
from repro.rpc.training_service import TRAIN_POOL_MIN_BITS
from repro.rpc.supervisor import repro_argv


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def _read_frames(data: bytes, count: int = 1, *, via: str, **kwargs):
    """Feed raw bytes, then EOF, through the blocking ``recv_frame`` over
    a socket pair: under a deadline, as a client reads a reply
    (``via="socket"``), or with none, as a service waits for the next
    request (``via="idle"``; the socket's own timeout only guards the
    test against a hang)."""
    writer, reader = socket.socketpair()
    with writer, reader:
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        if via == "socket":
            deadline = time.monotonic() + 5
        else:
            deadline = None
            reader.settimeout(5)
        frames = [framing.recv_frame(reader, deadline, **kwargs)
                  for _ in range(count)]
    return frames[0] if count == 1 else frames


@pytest.fixture(params=["socket", "idle"])
def read_frames(request):
    """Every framing case runs with and without a deadline."""
    return functools.partial(_read_frames, via=request.param)


class TestFraming:
    def test_encode_decode_roundtrip(self, read_frames):
        header = {"kind": "ack", "seq": 3}
        body = b"\x01\x02\x03"
        got_header, got_body = read_frames(
            framing.encode_frame(header, body))
        assert got_header == header
        assert got_body == body

    def test_empty_body(self, read_frames):
        _, body = read_frames(framing.encode_frame({"kind": "x"}))
        assert body == b""

    def test_clean_eof_returns_none(self, read_frames):
        assert read_frames(b"") is None

    def test_truncated_frame_raises(self, read_frames):
        frame = framing.encode_frame({"kind": "x"}, b"abcdef")
        with pytest.raises(framing.FrameError):
            read_frames(frame[:-2])

    def test_oversized_frame_rejected(self, read_frames):
        frame = framing.encode_frame({"kind": "x"}, b"y" * 100)
        with pytest.raises(framing.FrameError):
            read_frames(frame, max_frame_bytes=50)

    def test_garbage_header_rejected(self, read_frames):
        good = framing.encode_frame({"kind": "x"})
        corrupted = good[:8] + b"\xff" * (len(good) - 8)
        with pytest.raises(framing.FrameError):
            read_frames(corrupted)

    def test_two_frames_back_to_back(self, read_frames):
        data = framing.encode_frame({"kind": "a"}) + \
            framing.encode_frame({"kind": "b"}, b"zz")
        first, second, third = read_frames(data, count=3)
        assert first[0]["kind"] == "a"
        assert second == ({"kind": "b"}, b"zz")
        assert third is None


@pytest.mark.timeout_guard(30)
class TestFramingAdversarial:
    """Hostile/corrupt wire input must raise FrameError (or clean-close)
    promptly -- never strand a reader.  The chaos proxy injects exactly
    these shapes, so this is the contract its faults rely on."""

    def test_header_truncated_mid_read(self, read_frames):
        # connection dies inside the JSON header region
        frame = framing.encode_frame({"kind": "status", "seq": 12})
        with pytest.raises(framing.FrameError):
            read_frames(frame[:12])

    def test_length_prefix_truncated_mid_read(self, read_frames):
        with pytest.raises(framing.FrameError):
            read_frames(b"\x00\x00")  # 2 of the 4 prefix bytes

    def test_oversized_length_prefix_rejected_before_payload(
            self, read_frames):
        # a hostile 2 GiB announcement must be rejected from the prefix
        # alone -- no allocation, no waiting for bytes that never come
        prefix = (2 ** 31).to_bytes(4, "big")
        with pytest.raises(framing.FrameError, match="exceeds limit"):
            read_frames(prefix)

    def test_zero_length_frame_rejected(self, read_frames):
        with pytest.raises(framing.FrameError, match="below header"):
            read_frames(b"\x00\x00\x00\x00")

    def test_non_json_header_bytes_rejected(self, read_frames):
        # valid UTF-8, not JSON
        garbage = b"this is not json"
        payload = len(garbage).to_bytes(4, "big") + garbage
        frame = (4 + len(garbage)).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="undecodable"):
            read_frames(frame)

    def test_non_object_json_header_rejected(self, read_frames):
        header = b"[1,2,3]"
        payload = len(header).to_bytes(4, "big") + header
        frame = (4 + len(header)).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="JSON object"):
            read_frames(frame)

    def test_header_length_overrunning_frame_rejected(self, read_frames):
        # inner header length claims more bytes than the frame holds
        payload = (500).to_bytes(4, "big") + b'{"kind":"x"}'
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="exceeds frame"):
            read_frames(frame)

    def test_invalid_utf8_header_rejected(self, read_frames):
        # the chaos proxy's corrupt fault: 0xff bytes where JSON was
        good = framing.encode_frame({"kind": "x", "seq": 1}, b"body")
        header_len = int.from_bytes(good[4:8], "big")
        corrupted = good[:8] + b"\xff" * header_len + good[8 + header_len:]
        with pytest.raises(framing.FrameError, match="undecodable"):
            read_frames(corrupted)

    def test_stalled_length_prefix_times_out_by_the_deadline(self):
        # 2 of the 4 prefix bytes, then silence on an open connection:
        # the blocking reader gives up at its deadline
        writer, reader = socket.socketpair()
        with writer, reader:
            writer.sendall(b"\x00\x00")
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                framing.recv_frame(reader, start + 0.3)
            elapsed = time.monotonic() - start
        assert 0.29 <= elapsed < 2


# ---------------------------------------------------------------------------
# typed messages
# ---------------------------------------------------------------------------

@pytest.fixture()
def wire_ctx(params):
    return WireContext(params)


def roundtrip(msg, ctx=None):
    header, body = msgs.encode_message(msg, ctx)
    return msgs.decode_message(header, body, ctx)


class TestMessages:
    def test_public_params_roundtrip(self, params, rng):
        authority = TrustedAuthority(CryptoNNConfig(), rng=rng)
        msg = msgs.PublicParamsResponse(
            group=params,
            config={"security_bits": 32, "scale": 100},
            feip_keys={3: authority.feip_public_key(3),
                       5: authority.feip_public_key(5)},
            febo_key=authority.febo_public_key(),
        )
        got = roundtrip(msg)
        assert got.group == params
        assert got.feip_keys == msg.feip_keys
        assert got.febo_key == msg.febo_key
        assert got.make_config().scale == 100

    def test_feip_key_request_both_accountings(self, wire_ctx):
        rows = [[1, -2, 3], [4, 5, -6]]
        for batched in (False, True):
            msg = msgs.FeipKeyRequest(rows=rows, batched=batched,
                                      requester="server")
            got = roundtrip(msg, wire_ctx)
            assert got.rows == rows
            assert got.batched is batched
            _, body = msgs.encode_message(msg, wire_ctx)
            expected = ser.feip_key_batch_request_wire_size(
                2, 3, wire_ctx.params) if batched else \
                2 * ser.feip_key_request_wire_size(3, wire_ctx.params)
            assert len(body) == expected

    def test_febo_key_request_roundtrip(self, wire_ctx):
        requests = [(123, "*", 1), (456, "-", -700)]
        got = roundtrip(msgs.FeboKeyRequest(requests=requests), wire_ctx)
        assert got.requests == requests

    def test_encrypted_data_upload_roundtrip(self, wire_ctx, rng):
        authority = TrustedAuthority(CryptoNNConfig(), rng=rng)
        client = Client(authority, name="c0")
        x = np.random.default_rng(0).uniform(-1, 1, size=(3, 2))
        dataset = client.encrypt_tabular(x, np.array([0, 1, 0]), 2)
        meta, body = ser.pack_encrypted_tabular(dataset, wire_ctx.params)
        msg = msgs.ShardChunk(fingerprint=msgs.shard_fingerprint(meta, body),
                              index=0, count=1, chunk=body, meta=meta,
                              client_name="c0")
        _, wired = msgs.encode_message(msg, wire_ctx)
        assert len(wired) == ser.encrypted_tabular_wire_size(
            3, 2, 2, wire_ctx.params)
        got = roundtrip(msg, wire_ctx)
        assert got.client_name == "c0"
        shard = ser.unpack_encrypted_tabular(got.meta, got.chunk,
                                             wire_ctx.params)
        assert shard.samples[1].features_ip == dataset.samples[1].features_ip
        assert shard.labels[2].onehot_bo == dataset.labels[2].onehot_bo
        assert shard.eval_labels.tolist() == [0, 1, 0]

    def test_control_messages_roundtrip(self):
        status = roundtrip(msgs.TrainStatus(state="training", accuracy=None,
                                            detail={"clients": 2}))
        assert status.state == "training"
        assert status.detail["clients"] == 2
        err = roundtrip(msgs.ErrorMessage(message="nope", error_type="Boom"))
        assert err.error_type == "Boom"
        ckpt = roundtrip(msgs.TrainCheckpointRequest(requester="driver"))
        assert ckpt.requester == "driver"
        predict = roundtrip(msgs.PredictResponse(scores=[[0.25, 0.75]]))
        assert predict.scores == [[0.25, 0.75]]

    def test_unknown_kind_rejected(self):
        with pytest.raises(msgs.MessageError):
            msgs.decode_message({"kind": "no-such-kind"}, b"", None)

    def test_key_message_requires_ctx(self):
        with pytest.raises(msgs.MessageError):
            msgs.encode_message(msgs.FeipKeyRequest(rows=[[1]]), None)


@pytest.fixture(scope="module")
def packed_shard(params):
    """One encrypted three-sample shard as the codec's ``(meta, body)``."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(5))
    client = Client(authority, name="c0")
    x = np.random.default_rng(0).uniform(-1, 1, size=(3, 2))
    dataset = client.encrypt_tabular(x, np.array([0, 1, 0]), 2)
    return ser.pack_encrypted_tabular(dataset, params)


@pytest.fixture(scope="module")
def sample_messages(params, packed_shard):
    """One message per registered kind, both variants of each key kind."""
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(5))
    meta, body = packed_shard
    feip_keys = [FeipFunctionKey(y=(1, -2, 3), sk=7),
                 FeipFunctionKey(y=(0, 4, -5), sk=params.q - 1)]
    # commitments are not wired, so a decoded FEBO key carries cmt=0
    febo_keys = [FeboFunctionKey(op="*", y=-3, sk=11, cmt=0)]
    fingerprint = "ab" * 32
    samples = [
        msgs.PublicParamsRequest(etas=(3, 5), include_febo=False,
                                 requester="c0"),
        msgs.PublicParamsResponse(
            group=params, config={"scale": 100},
            feip_keys={3: authority.feip_public_key(3)},
            febo_key=authority.febo_public_key()),
        msgs.ShardChunk(
            fingerprint=fingerprint, index=0, count=2, chunk=body[:7],
            meta={**meta,
                  "stats": {"precomputed": 4, "consumed": 4, "misses": 0}},
            client_name="c0"),
        msgs.ShardResumeQuery(fingerprint=fingerprint, count=3,
                              client_name="c0"),
        msgs.Ack(info={"received": 3}),
        msgs.ErrorMessage(message="nope", error_type="Boom"),
        msgs.TrainStart(requester="driver"),
        msgs.TrainCheckpointRequest(requester="driver"),
        msgs.TrainStatusRequest(requester="driver"),
        msgs.TrainStatus(state="done", accuracy=0.75,
                         detail={"clients": 2}),
        msgs.PredictRequest(indices=[0, 2]),
        msgs.PredictResponse(scores=[[0.25, 0.75]]),
        msgs.MetricsRequest(requester="probe"),
        msgs.MetricsResponse(service="server",
                             metrics={"repro_x_total": 1}),
        msgs.HealthRequest(requester="probe"),
        msgs.HealthResponse(ready=True, state="training",
                            detail={"clients": 1}),
    ]
    for batched in (False, True):
        samples += [
            msgs.FeipKeyRequest(rows=[[1, -2, 3], [4, 5, -6]],
                                batched=batched),
            msgs.FeipKeyResponse(keys=feip_keys, batched=batched),
            msgs.FeboKeyRequest(requests=[(123, "*", 1), (456, "-", -700)],
                                batched=batched),
            msgs.FeboKeyResponse(keys=febo_keys, batched=batched),
        ]
    return {msg.kind: msg for msg in samples}


def _tampered(msg, ctx, **fields):
    header, body = msgs.encode_message(msg, ctx)
    header.update(fields)
    return header, body


class TestMessageCodec:
    """The one generic codec, checked over the whole message registry."""

    @pytest.mark.parametrize("kind", sorted(msgs._REGISTRY))
    def test_every_kind_roundtrips(self, kind, sample_messages, wire_ctx):
        msg = sample_messages[kind]
        header, body = msgs.encode_message(msg, wire_ctx)
        got = msgs.decode_message(header, body, wire_ctx)
        assert type(got) is type(msg) and got.kind == kind
        assert msgs.encode_message(got, wire_ctx) == (header, body)
        assert got == msg

    @pytest.mark.parametrize("kind, field, value", [
        (msgs.KIND_PREDICT_REQUEST, "indices", ["x"]),
        (msgs.KIND_PREDICT_REQUEST, "indices", [-1]),
        (msgs.KIND_PREDICT_REQUEST, "indices", None),
        (protocol.KIND_PUBLIC_PARAMS, "etas", "3"),
        (protocol.KIND_PUBLIC_PARAMS, "febo", "yes"),
        (msgs.KIND_ERROR, "message", 5),
        (msgs.KIND_TRAIN_STATUS_RESPONSE, "accuracy", "high"),
        (msgs.KIND_PREDICT_RESPONSE, "scores", [[True]]),
        (msgs.KIND_ACK, "info", ["received"]),
        (msgs.KIND_SERVICE_HEALTH_RESPONSE, "ready", 1),
        (msgs.KIND_SHARD_RESUME, "count", 0),
        (msgs.KIND_SHARD_RESUME, "count", msgs.MAX_SHARD_CHUNKS + 1),
        (protocol.KIND_ENCRYPTED_DATA, "index", 3),
        (protocol.KIND_FEIP_KEY_REQUEST, "count", -1),
        (protocol.KIND_FEIP_KEY_RESPONSE, "eta", "3"),
    ])
    def test_malformed_header_field_rejected(self, kind, field, value,
                                             sample_messages, wire_ctx):
        header, body = _tampered(sample_messages[kind], wire_ctx,
                                 **{field: value})
        with pytest.raises(msgs.MessageError):
            msgs.decode_message(header, body, wire_ctx)

    @pytest.mark.parametrize("eval_labels", [
        [0], [0, 1, 0, 1, 1], [0, 7, 0], [0, -1, 0], [0, "1", 0]])
    def test_upload_eval_labels_must_match_the_shard(
            self, eval_labels, packed_shard, wire_ctx):
        """Merged shards concatenate their eval labels: a wrong length
        or class index would misreport accuracy or fail mid-evaluate,
        so the shard codec every upload and dataset file goes through
        rejects them."""
        meta, body = packed_shard
        with pytest.raises(ValueError, match="eval_labels"):
            ser.unpack_encrypted_tabular(
                {**meta, "eval_labels": eval_labels}, body, wire_ctx.params)

    @pytest.mark.parametrize("stats", [
        {"precomputed": 4, "evil_name": 1}, {"misses": -1},
        {"consumed": "4"}, ["misses"]])
    def test_upload_stats_are_engine_counters_only(
            self, stats, sample_messages, wire_ctx):
        """Each stats key becomes a server metric name and its value a
        counter increment, so only the engine's counters, never
        negative, may decode."""
        upload = sample_messages[protocol.KIND_ENCRYPTED_DATA]
        meta = {**upload.meta, "stats": stats}
        header, body = _tampered(upload, wire_ctx, meta=meta)
        with pytest.raises(msgs.MessageError):
            msgs.decode_message(header, body, wire_ctx)
        with pytest.raises(msgs.MessageError):
            dataclasses.replace(upload, meta=meta).header()


# ---------------------------------------------------------------------------
# authority service over a real socket
# ---------------------------------------------------------------------------

@pytest.fixture()
def live_authority():
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    service = AuthorityService(authority)
    host, port = service.start()
    yield authority, service, (host, port)
    service.stop()


@pytest.mark.timeout_guard(60)
class TestAuthorityServiceLoopback:
    def test_a_service_starts_once(self):
        """A second ``start()`` raises, before and after ``stop()``: a
        stopped listener restarted on a fresh port would reset every
        connection it accepted there."""
        service = AuthorityService(
            TrustedAuthority(CryptoNNConfig(), rng=random.Random(0)))
        addr = service.start()
        try:
            with pytest.raises(RuntimeError, match="started already"):
                service.start()
            with RpcEndpoint(*addr, name="probe", peer="authority") as probe:
                for _ in range(2):
                    assert probe.request(
                        msgs.HealthRequest(requester="probe")).ready
        finally:
            service.stop()
        with pytest.raises(RuntimeError, match="started already"):
            service.start()
        assert service.address == addr
        assert service.connection_rejections == 0

    def test_handshake_matches_local_authority(self, live_authority):
        authority, _, addr = live_authority
        with RemoteAuthority(*addr, name="server") as remote:
            assert remote.params == authority.params
            assert remote.config == authority.config
            assert remote.feip_public_key(3) == authority.feip_public_key(3)
            assert remote.febo_public_key() == authority.febo_public_key()

    def test_remote_keys_decrypt_correctly(self, live_authority):
        _, _, addr = live_authority
        with RemoteAuthority(*addr, name="server",
                             rng=random.Random(5)) as remote:
            mpk = remote.feip_public_key(3)
            keys = remote.derive_feip_keys_batch([[1, 2, 3], [-4, 0, 6]])
            ct = remote.feip.encrypt(mpk, [7, -8, 9])
            assert remote.feip.decrypt(mpk, ct, keys[0], bound=1000) == \
                7 * 1 - 8 * 2 + 9 * 3
            bpk = remote.febo_public_key()
            bct = remote.febo.encrypt(bpk, 42)
            bkeys = remote.derive_febo_keys_batch([(bct.cmt, "-", 10)])
            assert bkeys[0].cmt == bct.cmt  # re-attached client-side
            assert remote.febo.decrypt(bpk, bkeys[0], bct, bound=100) == 32

    def test_closed_authority_leaves_no_open_socket(self, live_authority):
        """Closing a RemoteAuthority closes the socket of every endpoint
        it opened (the handshake one and any key-fetch one), so
        collecting them warns of no unclosed socket."""
        _, _, addr = live_authority
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with RemoteAuthority(*addr, name="server") as remote:
                g = remote.params.g
                assert len(list(remote.derive_febo_key_sets(
                    [[(g, "+", i)] for i in range(4)], batched=True))) == 4
            del remote
            gc.collect()
        unclosed = [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)]
        assert not unclosed

    def test_connection_traffic_matches_wire_sizes(self, live_authority):
        authority, service, addr = live_authority
        with RemoteAuthority(*addr, name="server") as remote:
            remote.derive_feip_keys_batch([[1, 2], [3, 4], [5, 6]])
        logs = [log for label, log in service.connection_traffic.items()
                if label.startswith("server#")]
        wired = sum(log.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST) for log in logs)
        assert wired == ser.feip_key_batch_request_wire_size(
            3, 2, authority.params)
        # the authority's own logical accounting agrees byte-for-byte
        assert wired == authority.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST)

    def test_remote_error_propagates_with_type(self, live_authority):
        authority, _, addr = live_authority
        bpk = authority.febo_public_key()
        ct = authority.febo.encrypt(bpk, 1)
        with RemoteAuthority(*addr, name="server") as remote:
            authority.permitted_ops = frozenset("+-")
            with pytest.raises(RpcRemoteError) as excinfo:
                remote.derive_febo_keys([(ct.cmt, "*", 2)])
            assert excinfo.value.error_type == \
                UnsupportedOperationError.__name__
            # the connection survives the error frame
            authority.permitted_ops = frozenset("+-*/")
            assert len(remote.derive_febo_keys([(ct.cmt, "*", 2)])) == 1

    def test_unknown_port_fails_fast(self):
        with pytest.raises(Exception):
            RemoteAuthority("127.0.0.1", free_port(), name="server",
                            connect_timeout=0.3,
                            policy=RetryPolicy(max_attempts=1))


# ---------------------------------------------------------------------------
# end-to-end: three entities over real sockets
# ---------------------------------------------------------------------------

HIDDEN, EPOCHS, BATCH_SIZE, LR, SEED = 6, 2, 10, 0.5, 0


def _make_shards(n_clients=2, samples=15, features=4):
    shards = load_clinics(n_clinics=n_clients, samples_per_clinic=samples,
                          n_features=features, seed=3)
    scale = shared_feature_scale([s.x for s in shards])
    return [(normalize_features(s.x, scale), s.y) for s in shards]


def _in_process_accuracy(shards):
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(SEED))
    parts = [
        Client(authority, name=f"clinic-{i}").encrypt_tabular(x, y, 2)
        for i, (x, y) in enumerate(shards)
    ]
    merged = merge_encrypted_tabular(parts)
    _, _, accuracy = run_training(
        merged, authority, hidden=HIDDEN, epochs=EPOCHS,
        batch_size=BATCH_SIZE, learning_rate=LR, seed=SEED)
    return accuracy


@pytest.mark.timeout_guard(30)
class TestEndpointLifecycle:
    """An endpoint is a blocking socket in its caller's thread: it
    starts no thread, a close() from another thread fails a request in
    flight at once, and one deadline bounds each attempt's exchange."""

    def test_connect_request_close_start_no_thread(self):
        # a responder thread that answers once and stays up until the
        # end, so only the endpoint could change the thread count (a
        # live service's executor may add a thread per request)
        done = threading.Event()

        with socket.create_server(("127.0.0.1", 0)) as server:
            def answer():
                conn, _ = server.accept()
                with conn, conn.makefile("rb") as stream:
                    size = int.from_bytes(stream.read(4), "big")
                    header, _ = framing.decode_frame_payload(
                        stream.read(size))
                    resp_header, body = msgs.encode_message(msgs.Ack())
                    resp_header["seq"] = header["seq"]
                    conn.sendall(framing.encode_frame(resp_header, body))
                    done.wait(10)

            responder = threading.Thread(target=answer)
            responder.start()
            try:
                threads = threading.active_count()
                endpoint = RpcEndpoint(*server.getsockname()[:2], name="x",
                                       peer="responder", timeout=10)
                assert isinstance(endpoint.request(msgs.Ack()), msgs.Ack)
                assert endpoint.connected
                assert threading.active_count() == threads
                endpoint.close()
                assert threading.active_count() == threads
            finally:
                done.set()
                responder.join(timeout=5)

    def test_close_from_another_thread_fails_request_in_flight(self):
        outcome = []

        with socket.create_server(("127.0.0.1", 0)) as server:
            endpoint = RpcEndpoint(*server.getsockname()[:2], name="x",
                                   peer="silent", timeout=30)

            def call():
                try:
                    endpoint.request(msgs.PublicParamsRequest())
                except Exception as exc:
                    outcome.append(exc)

            caller = threading.Thread(target=call)
            caller.start()
            conn, _ = server.accept()
            with conn:
                conn.recv(4)  # the request is on the wire; never answer
                start = time.monotonic()
                endpoint.close()
                caller.join(timeout=5)
                elapsed = time.monotonic() - start
        assert not caller.is_alive()
        assert elapsed < 1
        assert len(outcome) == 1
        assert isinstance(outcome[0], RpcError)
        assert "closed mid-request" in str(outcome[0])
        stats = endpoint.stats.snapshot()
        assert stats["drops"] == stats["timeouts"] == stats["retries"] == 0

    def test_close_from_another_thread_fails_connect_in_flight(self):
        """A connect that cannot complete -- the listener's accept queue
        is full, so its SYNs are dropped -- fails at once on close(),
        not after ``connect_timeout``."""
        outcome = []
        fillers = []
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(0)
            addr = server.getsockname()[:2]
            try:
                for _ in range(16):  # fill the queue: a connect stalls
                    filler = socket.socket()
                    fillers.append(filler)
                    filler.setblocking(False)
                    filler.connect_ex(addr)
                    if not select.select((), (filler,), (), 0.2)[1]:
                        break
                else:
                    pytest.fail("the listener's accept queue never filled")
                endpoint = RpcEndpoint(*addr, name="x", peer="full",
                                       timeout=30, connect_timeout=30)

                def call():
                    try:
                        endpoint.request(msgs.PublicParamsRequest())
                    except Exception as exc:
                        outcome.append(exc)

                caller = threading.Thread(target=call, daemon=True)
                caller.start()
                time.sleep(0.3)  # the caller is inside its connect
                assert caller.is_alive() and not endpoint.connected
                start = time.monotonic()
                endpoint.close()
                caller.join(timeout=5)
                elapsed = time.monotonic() - start
            finally:
                for filler in fillers:
                    filler.close()
        assert not caller.is_alive()
        assert elapsed < 1
        assert len(outcome) == 1
        assert isinstance(outcome[0], RpcError)
        assert "closed mid-request" in str(outcome[0])
        stats = endpoint.stats.snapshot()
        assert stats["drops"] == stats["timeouts"] == stats["retries"] == 0

    def test_close_racing_requests_leaks_no_socket(self, live_authority):
        """Endpoints closed at varying moments of their callers' request
        loops, with thread switches forced often: every caller stops at
        once on a closed-endpoint error, and no socket is left open."""
        _, _, addr = live_authority
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                for round_ in range(20):
                    endpoints = [RpcEndpoint(*addr, name=f"x{i}",
                                             peer=protocol.AUTHORITY)
                                 for i in range(4)]
                    errors = []

                    def hammer(endpoint):
                        try:
                            while True:
                                endpoint.request(msgs.PublicParamsRequest())
                        except RpcError as exc:
                            errors.append(str(exc))

                    callers = [threading.Thread(target=hammer, args=(e,))
                               for e in endpoints]
                    for caller in callers:
                        caller.start()
                    time.sleep(0.001 * round_)
                    for endpoint in endpoints:
                        endpoint.close()
                    for caller in callers:
                        caller.join(timeout=5)
                    assert not any(caller.is_alive() for caller in callers)
                    assert len(errors) == 4
                    assert all("closed" in error for error in errors), errors
                    assert all(e.stats.drops == e.stats.retries == 0
                               for e in endpoints)
                del endpoints, callers
                gc.collect()
        finally:
            sys.setswitchinterval(interval)
        assert not [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_trickling_peer_times_out_by_the_attempt_deadline(self):
        stop = threading.Event()

        with socket.create_server(("127.0.0.1", 0)) as server:
            def drip():
                conn, _ = server.accept()
                with conn:
                    conn.recv(1024)
                    response = framing.encode_frame(
                        {"kind": "ack", "seq": 1}, b"x" * 64)
                    for byte in response:
                        if stop.wait(0.2):
                            return
                        try:
                            conn.sendall(bytes([byte]))
                        except OSError:
                            return

            dripper = threading.Thread(target=drip)
            dripper.start()
            endpoint = RpcEndpoint(*server.getsockname()[:2], name="x",
                                   peer="dripper", timeout=0.5,
                                   policy=RetryPolicy(max_attempts=1))
            start = time.monotonic()
            try:
                with pytest.raises(RpcError) as excinfo:
                    endpoint.request(msgs.PublicParamsRequest())
                elapsed = time.monotonic() - start
            finally:
                endpoint.close()
                stop.set()
                dripper.join(timeout=5)
        assert isinstance(excinfo.value.__cause__, RpcTimeoutError)
        assert elapsed < 2
        stats = endpoint.stats.snapshot()
        assert stats["timeouts"] == 1
        assert stats["giveups"] == 1


@pytest.mark.timeout_guard(300)
class TestEndToEndLoopback:
    def test_three_entities_train_identically(self):
        """Authority, clients and training server over real sockets
        reproduce the in-process accuracy exactly (same seeds)."""
        shards = _make_shards()
        expected_accuracy = _in_process_accuracy(shards)

        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=len(shards), hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED)
        train_addr = service.start()
        try:
            uploads = [
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}",
                             rng=random.Random(100 + i))
                for i, (x, y) in enumerate(shards)
            ]
            service.wait_done(timeout=240)

            assert service.state == "done", service.error
            assert service.accuracy == expected_accuracy

            # per-connection upload bytes match the serialization sizes
            formula = ser.encrypted_tabular_wire_size(
                15, 4, 2, authority.params)
            for upload in uploads:
                assert upload["upload_bytes"] == formula
            logged = [
                log.total_bytes(kind=protocol.KIND_ENCRYPTED_DATA)
                for label, log in service.connection_traffic.items()
                if label.startswith("clinic-")
            ]
            assert sorted(logged) == [formula] * len(shards)

            # authority-side per-connection batch traffic equals the
            # authority's own logical accounting (packed bodies == formulas)
            server_logs = [
                log for label, log in
                auth_service.connection_traffic.items()
                if label.startswith(protocol.SERVER)
            ]
            for kind in (protocol.KIND_FEIP_KEY_BATCH_REQUEST,
                         protocol.KIND_FEIP_KEY_BATCH_RESPONSE,
                         protocol.KIND_FEBO_KEY_BATCH_REQUEST,
                         protocol.KIND_FEBO_KEY_BATCH_RESPONSE):
                wired = sum(log.total_bytes(kind=kind)
                            for log in server_logs)
                assert wired == authority.traffic.total_bytes(kind=kind)
                assert wired > 0

            # predictions flow back over the same transport
            with RpcEndpoint(*train_addr, name="clinic-0",
                             peer=protocol.SERVER) as endpoint:
                resp = endpoint.request(
                    msgs.PredictRequest(indices=[0, 1, 2]))
            assert len(resp.scores) == 3
            assert all(len(row) == 2 for row in resp.scores)
        finally:
            service.stop()
            auth_service.stop()

    def test_status_answers_without_authority(self):
        """Control messages need no wire context: a status poll must not
        block on (or fail with) an authority handshake."""
        dead_authority = ("127.0.0.1", free_port())
        service = TrainingService(*dead_authority, expected_clients=1)
        addr = service.start()
        try:
            start = time.monotonic()
            status = fetch_status(addr)
            assert status.state == "waiting"
            assert time.monotonic() - start < 5  # no 10s connect stall
        finally:
            service.stop()

    def test_oversized_frame_fails_fast_client_side(self):
        shards = _make_shards(n_clients=1)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(*auth_addr, expected_clients=1)
        train_addr = service.start()
        try:
            x, y = shards[0]
            with RemoteAuthority(*auth_addr, name="tiny",
                                 rng=random.Random(2)) as remote:
                dataset = Client(remote, name="tiny").encrypt_tabular(
                    x, y, 2)
                meta, fingerprint, chunks = plan_shard_chunks(
                    dataset, remote.params)
                with RpcEndpoint(*train_addr, name="tiny",
                                 peer=protocol.SERVER,
                                 max_frame_bytes=64) as endpoint:
                    with pytest.raises(framing.FrameError,
                                       match="exceeds limit"):
                        endpoint.request(msgs.ShardChunk(
                            fingerprint=fingerprint, index=0,
                            count=len(chunks), chunk=chunks[0], meta=meta,
                            client_name="tiny"))
            # the frame failed before any byte of it left the client
            assert sum(log.total_bytes(kind=protocol.KIND_ENCRYPTED_DATA)
                       for log in service.connection_traffic.values()) == 0
        finally:
            service.stop()
            auth_service.stop()

    def test_closed_endpoint_refuses_requests(self, live_authority):
        _, _, addr = live_authority
        endpoint = RpcEndpoint(*addr, name="x", peer=protocol.AUTHORITY)
        endpoint.close()
        with pytest.raises(RpcError, match="closed"):
            endpoint.request(msgs.PublicParamsRequest())

    def test_upload_with_workers_is_byte_exact(self):
        """`--workers N` parallel encryption changes neither the bytes
        on the wire nor the training trajectory: decryption recovers
        exact integers, so nonce provenance cannot leak into floats."""
        shards = _make_shards()
        expected_accuracy = _in_process_accuracy(shards)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=len(shards), hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED)
        train_addr = service.start()
        try:
            uploads = [
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}",
                             rng=random.Random(100 + i), workers=1)
                for i, (x, y) in enumerate(shards)
            ]
            service.wait_done(timeout=240)
            assert service.state == "done", service.error
            assert service.accuracy == expected_accuracy
            formula = ser.encrypted_tabular_wire_size(
                15, 4, 2, authority.params)
            for upload in uploads:
                assert upload["upload_bytes"] == formula
        finally:
            service.stop()
            auth_service.stop()
            shutdown_compute_pools()

    def test_duplicate_upload_is_idempotent(self):
        """A client resending after a lost ack must not duplicate its
        shard or start training early."""
        shards = _make_shards(n_clients=2)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=2, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED)
        train_addr = service.start()
        try:
            x, y = shards[0]
            first = upload_shard(auth_addr, train_addr, x, y, 2,
                                 name="clinic-0", rng=random.Random(1))
            resend = upload_shard(auth_addr, train_addr, x, y, 2,
                                  name="clinic-0", rng=random.Random(2))
            assert first["ack"]["clients"] == 1
            assert resend["ack"]["clients"] == 1  # replaced, not appended
            assert service.state == "waiting"
            x, y = shards[1]
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-1",
                         rng=random.Random(3))
            service.wait_done(timeout=120)
            assert service.state == "done", service.error
            assert len(service.dataset) == 30  # 15 + 15, no duplicates
        finally:
            service.stop()
            auth_service.stop()

    def test_train_start_forces_early_training(self):
        shards = _make_shards(n_clients=1)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=5, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED)
        train_addr = service.start()
        try:
            x, y = shards[0]
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                         rng=random.Random(9))
            with RpcEndpoint(*train_addr, name="driver",
                             peer=protocol.SERVER) as endpoint:
                status = endpoint.request(msgs.TrainStatusRequest())
                assert status.state == "waiting"
                endpoint.request(msgs.TrainStart())
            service.wait_done(timeout=120)
            assert service.state == "done", service.error
            assert 0.0 <= service.accuracy <= 1.0
        finally:
            service.stop()
            auth_service.stop()


# ---------------------------------------------------------------------------
# separate OS processes (the deployment shape)
# ---------------------------------------------------------------------------

@pytest.mark.timeout_guard(60)
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_authority_stops_cleanly_on_signal(sig, repro_env, live_processes):
    """``serve-authority`` with a started key pool and a connected client
    stops alike on SIGINT and SIGTERM: exit 0 within 5 s, no pool
    worker left, and the pooled keys equal in-process derivation.  The
    second stop sends the signal twice: a repeat must not break the
    shutdown under way."""
    cpus = len(os.sched_getaffinity(0))
    reference = TrustedAuthority(
        CryptoNNConfig(security_bits=POOL_MIN_BITS), rng=random.Random(0))
    for repeats in (1, 2):
        port = free_port()
        proc = subprocess.Popen(
            repro_argv("serve-authority", "--bits", str(POOL_MIN_BITS),
                       "--port", str(port)),
            env=repro_env, stdout=subprocess.DEVNULL)
        try:
            wait_for_port("127.0.0.1", port)
            with RemoteAuthority("127.0.0.1", port) as remote:
                requests = [(remote.params.g, op, 3) for op in "+-*/"]
                keys = remote.derive_febo_keys_batch(requests)
                workers = {pid for pid, ppid in live_processes().items()
                           if ppid == proc.pid}
                assert len(workers) == (cpus if cpus > 1 else 0)
                for _ in range(repeats):
                    proc.send_signal(sig)
                assert proc.wait(timeout=5) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert not workers & live_processes().keys()
        assert keys == reference.derive_febo_keys_batch(requests)


@pytest.mark.timeout_guard(60)
def test_authority_survives_a_killed_pool_worker(repro_env, live_processes):
    """A pool worker killed under ``serve-authority`` costs one lane
    rebuild: the service keeps answering, the killed worker's lane gets
    a new one while the other workers survive, the service later stops
    on SIGTERM within 5 s, and leaves no worker behind -- old or
    rebuilt.

    The authority memoizes each commitment's mask, so a repeated
    request would never reach the pool: every request here names fresh
    commitments, and its keys must decrypt ciphertexts made under the
    service's own FEBO public key."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("serve-authority builds no pool on one CPU")
    port = free_port()
    proc = subprocess.Popen(
        repro_argv("serve-authority", "--bits", str(POOL_MIN_BITS),
                       "--port", str(port)),
        env=repro_env, stdout=subprocess.DEVNULL)

    def workers() -> set[int]:
        return {pid for pid, ppid in live_processes().items()
                if ppid == proc.pid}

    try:
        wait_for_port("127.0.0.1", port)
        with RemoteAuthority("127.0.0.1", port) as remote:
            bpk = remote.febo_public_key()

            def decrypted_fresh_keys() -> list[int]:
                """12 op 3 through keys for never-seen commitments."""
                cts = [remote.febo.encrypt(bpk, 12) for _ in "+-*/"]
                keys = remote.derive_febo_keys_batch(
                    [(ct.cmt, op, 3) for ct, op in zip(cts, "+-*/")])
                return [remote.febo.decrypt(bpk, key, ct, bound=100)
                        for key, ct in zip(keys, cts)]

            assert decrypted_fresh_keys() == [15, 9, 36, 4]
            first = workers()
            # the first-forked worker: lane 0, which every request uses
            killed = min(first)
            os.kill(killed, signal.SIGKILL)
            # the lane notices its dead worker; the next request rebuilds it
            time.sleep(1)
            for _ in range(2):
                assert decrypted_fresh_keys() == [15, 9, 36, 4]
            assert proc.poll() is None
            rebuilt = workers()
            assert killed not in rebuilt
            assert first - {killed} <= rebuilt
            assert len(rebuilt) == len(first)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not (first | rebuilt) & live_processes().keys()


class TestServicePoolRule:
    """``serve-authority``, ``serve-train`` and ``client-upload`` size
    their pools by one rule, each from its own cutoff: one worker per
    usable CPU from ``min_bits`` up."""

    def test_one_worker_per_cpu_from_the_cutoff(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert service_workers(POOL_MIN_BITS - 1, POOL_MIN_BITS) is None
        assert service_workers(POOL_MIN_BITS, POOL_MIN_BITS) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert service_workers(POOL_MIN_BITS, POOL_MIN_BITS) is None

    @pytest.mark.parametrize("bits, workers, expected", [
        (32, None, None), (TRAIN_POOL_MIN_BITS, None, 3),
        (TRAIN_POOL_MIN_BITS, 1, 1), (32, 2, 2)])
    def test_training_service_pool_follows_the_group(
            self, monkeypatch, bits, workers, expected):
        # pools fork their workers on first use, so asking costs nothing
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        service = TrainingService("127.0.0.1", free_port(), workers=workers)
        pool = service._pool(GroupParams.predefined(bits))
        assert (None if pool is None else pool.workers) == expected
        assert service.workers == workers

    @pytest.mark.timeout_guard(120)
    def test_serve_train_hands_its_pool_to_the_trainer(self):
        """The pool ``serve-train`` picks is the one its trainer
        decrypts on, also on a toy group and a single CPU, where a
        dropped handoff would train inline without a trace."""
        authority = TrustedAuthority(CryptoNNConfig(security_bits=32),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        service = TrainingService(
            *auth_addr, expected_clients=1, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED, workers=2)
        train_addr = service.start()
        try:
            before = get_compute_pool(2).dispatches
            (x, y), = _make_shards(n_clients=1, samples=10)
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                         rng=random.Random(1))
            service.wait_done(timeout=100)
            assert service.state == "done", service.error
            assert service.trainer.compute_pool is get_compute_pool(2)
            assert service.trainer.compute_pool.dispatches > before
        finally:
            service.stop()
            auth_service.stop()
            shutdown_compute_pools()


@pytest.mark.timeout_guard(120)
class TestClientUploadPool:
    """``upload_shard`` sizes the client's encryption pool by the
    services' rule from ``CLIENT_POOL_MIN_BITS``, unless ``workers`` is
    given, and stops the pool before it sends the shard."""

    @pytest.mark.parametrize("bits, cpus, workers, expected", [
        (64, 2, None, None),
        (CLIENT_POOL_MIN_BITS, 2, None, 2),
        (CLIENT_POOL_MIN_BITS, 1, None, None),
        (CLIENT_POOL_MIN_BITS, 2, 1, 1),
        (32, 1, 2, 2)])
    def test_default_pool_follows_group_and_cpus(
            self, monkeypatch, live_processes, bits, cpus, workers,
            expected):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        pools, forked = [], set()

        class SpyPool(SecureComputePool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def close(self):
                forked.update(self.worker_pids())
                super().close()

        monkeypatch.setattr(client_agent, "SecureComputePool", SpyPool)
        authority = TrustedAuthority(CryptoNNConfig(security_bits=bits),
                                     rng=random.Random(SEED))
        auth_service = AuthorityService(authority)
        auth_addr = auth_service.start()
        # a second client never comes, so the trainer never trains
        train_service = TrainingService(
            *auth_addr, expected_clients=2, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED)
        train_addr = train_service.start()
        try:
            (x, y), = _make_shards(n_clients=1)
            result = upload_shard(auth_addr, train_addr, x, y, 2,
                                  name="clinic-0", workers=workers)
        finally:
            train_service.stop()
            auth_service.stop()
        assert result["ack"]["received"] == 15
        assert result["upload_bytes"] == ser.encrypted_tabular_wire_size(
            15, 4, 2, authority.params)
        assert [pool.workers for pool in pools] == \
            ([] if expected is None else [expected])
        for pool in pools:
            # features, labels and FEBO: one dispatch per nonce batch
            assert pool.dispatches == 3 and not pool.started
            # one lane per worker, all forked on first use, none rebuilt
            assert pool.executors_created == pool.workers
        # every forked worker is gone once the upload returns
        assert len(forked) == (expected or 0)
        assert not forked & live_processes().keys()


@pytest.mark.timeout_guard(120)
@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_serve_train_pool_trains_byte_exact_and_stops_cleanly(
        sig, tmp_path, repro_env, live_processes):
    """``serve-train`` at ``TRAIN_POOL_MIN_BITS`` checks the upload and
    trains on a pool of its own children, one per usable CPU, and its
    model equals an in-process run's byte for byte.  SIGINT and SIGTERM
    both stop it: exit 0 within 5 s, with no pool worker left."""
    cpus = len(os.sched_getaffinity(0))
    (x, y), = _make_shards(n_clients=1, samples=10)
    auth_port, train_port = free_port(), free_port()
    weights_path = tmp_path / "model.npz"
    authority = subprocess.Popen(
        repro_argv("serve-authority", "--bits", str(TRAIN_POOL_MIN_BITS),
                   "--port", str(auth_port)),
        env=repro_env, stdout=subprocess.DEVNULL)
    trainer = subprocess.Popen(
        repro_argv("serve-train", "--port", str(train_port),
                   "--authority-port", str(auth_port),
                   "--hidden", str(HIDDEN), "--epochs", "1",
                   "--batch-size", str(BATCH_SIZE),
                   "--learning-rate", str(LR), "--seed", str(SEED),
                   "--model-out", str(weights_path), "--stay"),
        env=repro_env, stdout=subprocess.DEVNULL)
    try:
        for port in (auth_port, train_port):
            wait_for_port("127.0.0.1", port)
        upload_shard(("127.0.0.1", auth_port), ("127.0.0.1", train_port),
                     x, y, 2, name="clinic-0", rng=random.Random(1))
        deadline = time.monotonic() + 60
        with RpcEndpoint("127.0.0.1", train_port, name="poller",
                         peer=protocol.SERVER) as endpoint:
            while True:
                status = endpoint.request(msgs.TrainStatusRequest())
                if status.state in ("done", "failed") \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.1)
        assert status.state == "done", status.detail
        workers = {pid for pid, ppid in live_processes().items()
                   if ppid == trainer.pid}
        assert len(workers) == (cpus if cpus > 1 else 0)
        trainer.send_signal(sig)
        assert trainer.wait(timeout=5) == 0
    finally:
        for proc in (trainer, authority):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    assert not workers & live_processes().keys()

    reference = TrustedAuthority(
        CryptoNNConfig(security_bits=TRAIN_POOL_MIN_BITS),
        rng=random.Random(0))
    in_process, _, accuracy = run_training(
        Client(reference).encrypt_tabular(x, y, 2), reference,
        hidden=HIDDEN, epochs=1, batch_size=BATCH_SIZE, learning_rate=LR,
        seed=SEED)
    assert status.accuracy == accuracy
    with np.load(weights_path) as archive:
        expected = {f"layer{i}.{name}": value
                    for i, layer in enumerate(in_process.model.layers)
                    for name, value in layer.params.items()}
        assert set(archive.files) == set(expected)
        for name, value in expected.items():
            assert np.array_equal(archive[name], value)


def _serve_authority_proc(port: int) -> None:
    from repro.cli import main
    main(["serve-authority", "--port", str(port), "--seed", "0"])


def _serve_train_proc(port: int, authority_port: int) -> None:
    from repro.cli import main
    main(["serve-train", "--port", str(port),
          "--authority-port", str(authority_port),
          "--expected-clients", "1", "--hidden", "4", "--epochs", "1",
          "--batch-size", "10", "--stay"])


@pytest.mark.timeout_guard(300)
class TestMultiProcess:
    def test_cli_services_in_separate_processes(self):
        ctx = multiprocessing.get_context("fork")
        auth_port, train_port = free_port(), free_port()
        authority_proc = ctx.Process(
            target=_serve_authority_proc, args=(auth_port,), daemon=True)
        train_proc = ctx.Process(
            target=_serve_train_proc, args=(train_port, auth_port),
            daemon=True)
        try:
            authority_proc.start()
            wait_for_port("127.0.0.1", auth_port)
            train_proc.start()
            wait_for_port("127.0.0.1", train_port)

            (x, y), = _make_shards(n_clients=1, samples=10)
            result = upload_shard(
                ("127.0.0.1", auth_port), ("127.0.0.1", train_port),
                x, y, 2, name="clinic-0", rng=random.Random(1))
            assert result["ack"]["received"] == 10

            deadline = time.monotonic() + 240
            state = None
            with RpcEndpoint("127.0.0.1", train_port, name="driver",
                             peer=protocol.SERVER) as endpoint:
                while time.monotonic() < deadline:
                    status = endpoint.request(msgs.TrainStatusRequest())
                    state = status.state
                    if state in ("done", "failed"):
                        break
                    time.sleep(0.2)
            assert state == "done", getattr(status, "detail", None)
            assert 0.0 <= status.accuracy <= 1.0
        finally:
            for proc in (train_proc, authority_proc):
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=10)
