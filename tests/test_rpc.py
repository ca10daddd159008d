"""The networked runtime: framing, messages, services, end-to-end.

The loopback end-to-end tests run the authority key service and the
training server as asyncio services on real 127.0.0.1 sockets (hosted
by :class:`~repro.rpc.runtime.ServiceThread`) with client agents
uploading encrypted shards -- three entities, three event loops, real
bytes.  Every socket test carries the ``timeout_guard`` marker so a
transport bug can never hang the suite.
"""

import asyncio
import dataclasses
import multiprocessing
import random
import time

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
    RpcEndpoint,
    RpcRemoteError,
    ServiceThread,
    TrainingService,
    WireContext,
    fetch_status,
    free_port,
    plan_shard_chunks,
    run_training,
    upload_planned_chunks,
    upload_shard,
    wait_for_port,
)
from repro.rpc import framing
from repro.rpc import messages as msgs


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def _read_frames(data: bytes, count: int = 1, **kwargs):
    """Feed raw bytes through read_frame on a fresh event loop."""

    async def _read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await framing.read_frame(reader, **kwargs)
                for _ in range(count)]

    frames = asyncio.run(_read())
    return frames[0] if count == 1 else frames


class TestFraming:
    def test_encode_decode_roundtrip(self):
        header = {"kind": "ack", "seq": 3}
        body = b"\x01\x02\x03"
        got_header, got_body = _read_frames(
            framing.encode_frame(header, body))
        assert got_header == header
        assert got_body == body

    def test_empty_body(self):
        _, body = _read_frames(framing.encode_frame({"kind": "x"}))
        assert body == b""

    def test_clean_eof_returns_none(self):
        assert _read_frames(b"") is None

    def test_truncated_frame_raises(self):
        frame = framing.encode_frame({"kind": "x"}, b"abcdef")
        with pytest.raises(framing.FrameError):
            _read_frames(frame[:-2])

    def test_oversized_frame_rejected(self):
        frame = framing.encode_frame({"kind": "x"}, b"y" * 100)
        with pytest.raises(framing.FrameError):
            _read_frames(frame, max_frame_bytes=50)

    def test_garbage_header_rejected(self):
        good = framing.encode_frame({"kind": "x"})
        corrupted = good[:8] + b"\xff" * (len(good) - 8)
        with pytest.raises(framing.FrameError):
            _read_frames(corrupted)

    def test_two_frames_back_to_back(self):
        data = framing.encode_frame({"kind": "a"}) + \
            framing.encode_frame({"kind": "b"}, b"zz")
        first, second, third = _read_frames(data, count=3)
        assert first[0]["kind"] == "a"
        assert second == ({"kind": "b"}, b"zz")
        assert third is None


@pytest.mark.timeout_guard(30)
class TestFramingAdversarial:
    """Hostile/corrupt wire input must raise FrameError (or clean-close)
    promptly -- never strand a reader.  The chaos proxy injects exactly
    these shapes, so this is the contract its faults rely on."""

    def test_header_truncated_mid_read(self):
        # connection dies inside the JSON header region
        frame = framing.encode_frame({"kind": "status", "seq": 12})
        with pytest.raises(framing.FrameError):
            _read_frames(frame[:12])

    def test_length_prefix_truncated_mid_read(self):
        with pytest.raises(framing.FrameError):
            _read_frames(b"\x00\x00")  # 2 of the 4 prefix bytes

    def test_oversized_length_prefix_rejected_before_payload(self):
        # a hostile 2 GiB announcement must be rejected from the prefix
        # alone -- no allocation, no waiting for bytes that never come
        prefix = (2 ** 31).to_bytes(4, "big")
        with pytest.raises(framing.FrameError, match="exceeds limit"):
            _read_frames(prefix)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(framing.FrameError, match="below header"):
            _read_frames(b"\x00\x00\x00\x00")

    def test_non_json_header_bytes_rejected(self):
        # valid UTF-8, not JSON
        garbage = b"this is not json"
        payload = len(garbage).to_bytes(4, "big") + garbage
        frame = (4 + len(garbage)).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="undecodable"):
            _read_frames(frame)

    def test_non_object_json_header_rejected(self):
        header = b"[1,2,3]"
        payload = len(header).to_bytes(4, "big") + header
        frame = (4 + len(header)).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="JSON object"):
            _read_frames(frame)

    def test_header_length_overrunning_frame_rejected(self):
        # inner header length claims more bytes than the frame holds
        payload = (500).to_bytes(4, "big") + b'{"kind":"x"}'
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(framing.FrameError, match="exceeds frame"):
            _read_frames(frame)

    def test_invalid_utf8_header_rejected(self):
        # the chaos proxy's corrupt fault: 0xff bytes where JSON was
        good = framing.encode_frame({"kind": "x", "seq": 1}, b"body")
        header_len = int.from_bytes(good[4:8], "big")
        corrupted = good[:8] + b"\xff" * header_len + good[8 + header_len:]
        with pytest.raises(framing.FrameError, match="undecodable"):
            _read_frames(corrupted)


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
    thread = ServiceThread(AuthorityService(authority))
    host, port = thread.start()
    yield authority, thread, (host, port)
    thread.stop()


@pytest.mark.timeout_guard(60)
class TestAuthorityServiceLoopback:
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

    def test_connection_traffic_matches_wire_sizes(self, live_authority):
        authority, thread, addr = live_authority
        with RemoteAuthority(*addr, name="server") as remote:
            remote.derive_feip_keys_batch([[1, 2], [3, 4], [5, 6]])
        service = thread.service
        logs = [log for label, log in service.connection_traffic.items()
                if label.startswith("server#")]
        wired = sum(log.total_bytes(
            kind=protocol.KIND_FEIP_KEY_BATCH_REQUEST) for log in logs)
        assert wired == ser.feip_key_batch_request_wire_size(
            3, 2, authority.params, authority.config.key_weight_bytes)
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
                            connect_timeout=0.3, retries=0)


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


@pytest.mark.timeout_guard(300)
class TestEndToEndLoopback:
    def test_three_entities_train_identically(self):
        """Authority, clients and training server over real sockets
        reproduce the in-process accuracy exactly (same seeds)."""
        shards = _make_shards()
        expected_accuracy = _in_process_accuracy(shards)

        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=len(shards), hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
        try:
            uploads = [
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}",
                             rng=random.Random(100 + i))
                for i, (x, y) in enumerate(shards)
            ]
            train_thread.call(lambda: service.wait_done(timeout=240),
                              timeout=250)

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
                auth_thread.service.connection_traffic.items()
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
            train_thread.stop()
            auth_thread.stop()

    def test_status_answers_without_authority(self):
        """Control messages need no wire context: a status poll must not
        block on (or fail with) an authority handshake."""
        dead_authority = ("127.0.0.1", free_port())
        service = TrainingService(*dead_authority, expected_clients=1)
        thread = ServiceThread(service)
        addr = thread.start()
        try:
            start = time.monotonic()
            status = fetch_status(addr)
            assert status.state == "waiting"
            assert time.monotonic() - start < 5  # no 10s connect stall
        finally:
            thread.stop()

    def test_oversized_frame_fails_fast_client_side(self):
        shards = _make_shards(n_clients=1)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(*auth_addr, expected_clients=1)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
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
                        upload_planned_chunks(
                            endpoint, name="tiny", meta=meta,
                            fingerprint=fingerprint, chunks=chunks,
                            start_probe=False)
        finally:
            train_thread.stop()
            auth_thread.stop()

    def test_closed_endpoint_refuses_requests(self, live_authority):
        _, _, addr = live_authority
        endpoint = RpcEndpoint(*addr, name="x", peer=protocol.AUTHORITY)
        endpoint.close()
        from repro.rpc import RpcError
        with pytest.raises(RpcError, match="closed"):
            endpoint.request(msgs.PublicParamsRequest())

    def test_upload_with_workers_is_byte_exact(self):
        """`--workers N` parallel encryption changes neither the bytes
        on the wire nor the training trajectory: decryption recovers
        exact integers, so nonce provenance cannot leak into floats."""
        from repro.matrix.parallel import shutdown_compute_pools

        shards = _make_shards()
        expected_accuracy = _in_process_accuracy(shards)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=len(shards), hidden=HIDDEN,
            epochs=EPOCHS, batch_size=BATCH_SIZE, learning_rate=LR,
            seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
        try:
            uploads = [
                upload_shard(auth_addr, train_addr, x, y, 2,
                             name=f"clinic-{i}",
                             rng=random.Random(100 + i), workers=1)
                for i, (x, y) in enumerate(shards)
            ]
            train_thread.call(lambda: service.wait_done(timeout=240),
                              timeout=250)
            assert service.state == "done", service.error
            assert service.accuracy == expected_accuracy
            formula = ser.encrypted_tabular_wire_size(
                15, 4, 2, authority.params)
            for upload in uploads:
                assert upload["upload_bytes"] == formula
        finally:
            train_thread.stop()
            auth_thread.stop()
            shutdown_compute_pools()

    def test_duplicate_upload_is_idempotent(self):
        """A client resending after a lost ack must not duplicate its
        shard or start training early."""
        shards = _make_shards(n_clients=2)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=2, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
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
            train_thread.call(lambda: service.wait_done(timeout=120),
                              timeout=130)
            assert service.state == "done", service.error
            assert len(service.dataset) == 30  # 15 + 15, no duplicates
        finally:
            train_thread.stop()
            auth_thread.stop()

    def test_train_start_forces_early_training(self):
        shards = _make_shards(n_clients=1)
        authority = TrustedAuthority(CryptoNNConfig(),
                                     rng=random.Random(SEED))
        auth_thread = ServiceThread(AuthorityService(authority))
        auth_addr = auth_thread.start()
        service = TrainingService(
            *auth_addr, expected_clients=5, hidden=4, epochs=1,
            batch_size=10, learning_rate=LR, seed=SEED)
        train_thread = ServiceThread(service)
        train_addr = train_thread.start()
        try:
            x, y = shards[0]
            upload_shard(auth_addr, train_addr, x, y, 2, name="clinic-0",
                         rng=random.Random(9))
            with RpcEndpoint(*train_addr, name="driver",
                             peer=protocol.SERVER) as endpoint:
                status = endpoint.request(msgs.TrainStatusRequest())
                assert status.state == "waiting"
                endpoint.request(msgs.TrainStart())
            train_thread.call(lambda: service.wait_done(timeout=120),
                              timeout=130)
            assert service.state == "done", service.error
            assert 0.0 <= service.accuracy <= 1.0
        finally:
            train_thread.stop()
            auth_thread.stop()


# ---------------------------------------------------------------------------
# separate OS processes (the deployment shape)
# ---------------------------------------------------------------------------

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
            wait_for_port("127.0.0.1", auth_port, timeout=30)
            train_proc.start()
            wait_for_port("127.0.0.1", train_port, timeout=30)

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
