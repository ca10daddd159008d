"""Tests for wire serialization and size accounting."""

import random
import re

import pytest

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.encdata import (
    EncryptedLabel,
    EncryptedSample,
    EncryptedTabularDataset,
)
from repro.fe.feip import Feip
from repro.fe.febo import Febo
from repro.mathutils.group import GroupParams
from repro.rpc import messages as msgs
from repro.rpc.messages import WireContext


@pytest.fixture()
def feip_objects(params, rng):
    feip = Feip(params, rng=rng)
    mpk, msk = feip.setup(3)
    ct = feip.encrypt(mpk, [1, -2, 3])
    key = feip.key_derive(msk, [4, 5, 6])
    return ct, key


@pytest.fixture()
def febo_objects(params, rng):
    febo = Febo(params, rng=rng)
    mpk, msk = febo.setup()
    ct = febo.encrypt(mpk, 42)
    key = febo.key_derive(msk, ct.cmt, "+", 7)
    return ct, key


def one_sample_shard(params, ip, bo) -> tuple[dict, bytes]:
    """``(meta, body)`` of a shard whose one sample and one label are
    the FEIP ciphertext ``ip`` and ``ip.eta`` copies of the FEBO
    ciphertext ``bo``."""
    n = ip.eta
    dataset = EncryptedTabularDataset(
        samples=[EncryptedSample(ip, (bo,) * n)],
        labels=[EncryptedLabel(ip, (bo,) * n)],
        num_classes=n, n_features=n, scale=100, params=params)
    return ser.pack_encrypted_tabular(dataset, params)


class TestRoundtrips:
    """Honest ciphertexts pass the validating unpack every upload and
    dataset file goes through."""

    def test_feip_ciphertext(self, params, feip_objects, febo_objects):
        ct, _ = feip_objects
        meta, body = one_sample_shard(params, ct, febo_objects[0])
        restored = ser.unpack_encrypted_tabular(meta, body, params)
        assert restored.samples[0].features_ip == ct
        assert restored.labels[0].onehot_ip == ct

    def test_febo_ciphertext(self, params, feip_objects, febo_objects):
        ct, _ = febo_objects
        meta, body = one_sample_shard(params, feip_objects[0], ct)
        restored = ser.unpack_encrypted_tabular(meta, body, params)
        assert restored.samples[0].features_bo == (ct,) * 3
        assert restored.labels[0].onehot_bo == (ct,) * 3

    @pytest.mark.parametrize("index", [0, 1, 4, 5, 15])
    @pytest.mark.parametrize("value, error", [
        ("zero", "outside (0, p)"), ("p", "outside (0, p)"),
        ("p-1", "subgroup"), ("negated", "subgroup")])
    def test_tampered_element_is_rejected(self, params, feip_objects,
                                          febo_objects, index, value,
                                          error):
        """Every element slot -- FEIP ``ct0`` and ``ct_i``, FEBO ``cmt``
        and ``ct``, label elements -- is checked: 0 and p are out of
        range, p - 1 and the negation ``p - v`` of an honest element are
        above q."""
        meta, body = one_sample_shard(params, feip_objects[0],
                                      febo_objects[0])
        width = ser.element_size_bytes(params)
        at = index * width
        honest = ser.unpack_uint(body[at:at + width])
        element = {"zero": 0, "p": params.p, "p-1": params.p - 1,
                   "negated": params.p - honest}[value]
        bad = body[:at] + element.to_bytes(width, "big") + body[at + width:]
        with pytest.raises(ValueError, match=re.escape(error)):
            ser.unpack_encrypted_tabular(meta, bad, params)


class TestWireSizes:
    def test_element_sizes_match_bitlength(self, params):
        assert ser.element_size_bytes(params) == (params.p.bit_length() + 7) // 8
        assert ser.exponent_size_bytes(params) == (params.q.bit_length() + 7) // 8

    def test_sizes_grow_with_group(self):
        small = GroupParams.predefined(32)
        large = GroupParams.predefined(256)
        assert ser.element_size_bytes(large) > ser.element_size_bytes(small)

    def test_feip_ciphertext_size(self, params, feip_objects):
        ct, _ = feip_objects
        expected = (1 + 3) * ser.element_size_bytes(params)
        assert ser.feip_ciphertext_wire_size(ct, params) == expected

    def test_feip_key_size_formula(self, params, feip_objects):
        """Matches the paper's k x |sk| download: sk plus bound vector."""
        _, key = feip_objects
        size = ser.feip_key_wire_size(key, params)
        assert size == ser.exponent_size_bytes(params) + 3 * 8

    def test_key_request_is_n_times_w(self, params):
        assert ser.KEY_WEIGHT_BYTES == 8
        assert ser.feip_key_request_wire_size(10, params) == 80

    def test_febo_sizes(self, params):
        assert ser.febo_ciphertext_wire_size(params) == 2 * ser.element_size_bytes(params)
        assert ser.febo_key_wire_size(params) > ser.element_size_bytes(params)


class TestGroupAndPublicKeyCodecs:
    def test_group_params_roundtrip(self, params):
        restored = ser.group_params_from_dict(ser.group_params_to_dict(params))
        assert restored == params

    def test_feip_public_key_binary_roundtrip_and_size(self, params, rng):
        feip = Feip(params, rng=rng)
        mpk, _ = feip.setup(5)
        packed = ser.pack_feip_public_key(mpk)
        # matches the broadcast accounting: (1 + eta) elements
        assert len(packed) == (1 + 5) * ser.element_size_bytes(params)
        assert ser.unpack_feip_public_key(packed, params) == mpk

    def test_febo_public_key_binary_roundtrip_and_size(self, params, rng):
        febo = Febo(params, rng=rng)
        mpk, _ = febo.setup()
        packed = ser.pack_febo_public_key(mpk)
        assert len(packed) == 2 * ser.element_size_bytes(params)
        assert ser.unpack_febo_public_key(packed, params) == mpk


class TestBinaryPrimitives:
    def test_uint_edges(self):
        for width in (1, 4, 8):
            for value in (0, 1, (1 << (8 * width)) - 1):
                assert ser.unpack_uint(ser.pack_uint(value, width)) == value

    def test_uint_overflow_raises(self):
        with pytest.raises(OverflowError):
            ser.pack_uint(1 << 32, 4)
        with pytest.raises(OverflowError):
            ser.pack_uint(-1, 4)

    def test_sint_edges(self):
        for width in (1, 4, 8):
            lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
            for value in (lo, -1, 0, 1, hi):
                assert ser.unpack_sint(ser.pack_sint(value, width)) == value

    def test_sint_overflow_raises(self):
        with pytest.raises(OverflowError):
            ser.pack_sint(1 << 63, 8)
        with pytest.raises(OverflowError):
            ser.pack_sint(-(1 << 63) - 1, 8)

    def test_ciphertext_roundtrips(self, params, feip_objects, febo_objects):
        ct, _ = feip_objects
        packed = ser.pack_feip_ciphertext(ct, params)
        assert len(packed) == ser.feip_ciphertext_wire_size(ct, params)
        bct, _ = febo_objects
        packed = ser.pack_febo_ciphertext(bct, params)
        assert len(packed) == ser.febo_ciphertext_wire_size(params)
        meta, body = one_sample_shard(params, ct, bct)
        assert len(body) == 2 * (ser.feip_ciphertext_wire_size(ct, params)
                                 + 3 * ser.febo_ciphertext_wire_size(params))
        restored = ser.unpack_encrypted_tabular(meta, body, params)
        assert restored.samples[0] == EncryptedSample(ct, (bct,) * 3)
        assert ser.pack_encrypted_tabular(restored, params) == (meta, body)


class TestBatchEnvelopes:
    """Property-style round trips over random signed weight rows, through
    the batched key messages' codec (envelope header + raw key codec)."""

    @staticmethod
    def roundtrip(msg, params):
        ctx = WireContext(params)
        header, body = msgs.encode_message(msg, ctx)
        return body, msgs.decode_message(header, body, ctx)

    def test_feip_request_roundtrip_random(self, params):
        rng = random.Random(99)
        for _ in range(20):
            count = rng.randrange(0, 6)
            eta = rng.randrange(1, 7)
            rows = [[rng.randrange(-10**6, 10**6) for _ in range(eta)]
                    for _ in range(count)]
            packed, got = self.roundtrip(msgs.FeipKeyRequest(rows=rows),
                                         params)
            assert len(packed) == ser.feip_key_batch_request_wire_size(
                count, eta if count else 0, params)
            assert got.rows == rows

    def test_feip_request_edge_weights(self, params):
        # two's-complement extremes of the 8-byte weight field
        lo, hi = -(1 << 63), (1 << 63) - 1
        rows = [[lo, hi, 0, -1]]
        _, got = self.roundtrip(msgs.FeipKeyRequest(rows=rows), params)
        assert got.rows == rows
        with pytest.raises(OverflowError):
            self.roundtrip(msgs.FeipKeyRequest(rows=[[hi + 1]]), params)

    def test_feip_response_roundtrip_edge_exponents(self, params, rng):
        feip = Feip(params, rng=rng)
        _, msk = feip.setup(3)
        keys = [feip.key_derive(msk, row)
                for row in ([0, 0, 0], [1, -1, 1], [-500, 400, -300])]
        # force the exponent extremes the wire must carry
        keys.append(ser.FeipFunctionKey(y=(1, 2, 3), sk=0))
        keys.append(ser.FeipFunctionKey(y=(1, 2, 3), sk=params.q - 1))
        packed, got = self.roundtrip(msgs.FeipKeyResponse(keys=keys), params)
        assert len(packed) == ser.feip_key_batch_response_wire_size(
            len(keys), 3, params)
        assert got.keys == keys

    def test_febo_request_roundtrip_random(self, params):
        rng = random.Random(7)
        for _ in range(20):
            count = rng.randrange(0, 8)
            requests = [
                (rng.randrange(1, params.p), rng.choice("+-*/"),
                 rng.randrange(-10**9, 10**9))
                for _ in range(count)
            ]
            packed, got = self.roundtrip(
                msgs.FeboKeyRequest(requests=requests), params)
            assert len(packed) == ser.febo_key_batch_request_wire_size(
                count, params)
            assert got.requests == requests

    def test_febo_response_roundtrip(self, params, febo_objects):
        _, key = febo_objects
        negative = ser.FeboFunctionKey(op="-", y=-12345, sk=key.sk, cmt=0)
        packed, got = self.roundtrip(
            msgs.FeboKeyResponse(keys=[key, negative]), params)
        assert len(packed) == ser.febo_key_batch_response_wire_size(2, params)
        # commitments are not wired; the requester re-attaches them
        assert [(k.op, k.y, k.sk) for k in got.keys] == \
            [(key.op, key.y, key.sk), ("-", -12345, key.sk)]

    def test_zero_count_with_trailing_bytes_rejected(self, params):
        stride = ser.exponent_size_bytes(params) + 2 * 8
        packed = ser.pack_batch_header(0, 2) + b"\x00" * stride
        with pytest.raises(msgs.MessageError):
            msgs.decode_message(
                {"kind": protocol.KIND_FEIP_KEY_BATCH_RESPONSE}, packed,
                WireContext(params))

    def test_truncated_envelope_rejected(self, params):
        header, packed = msgs.encode_message(
            msgs.FeipKeyRequest(rows=[[1, 2], [3, 4]]), WireContext(params))
        with pytest.raises(msgs.MessageError):
            msgs.decode_message(header, packed[:-3], WireContext(params))
        with pytest.raises(msgs.MessageError):
            msgs.decode_message(header, b"\x00\x01", WireContext(params))

    def test_upload_size_composes_from_parts(self, params):
        total = ser.encrypted_tabular_wire_size(7, 5, 3, params)
        per_sample = ser.encrypted_sample_wire_size(5, params)
        per_label = ser.encrypted_label_wire_size(3, params)
        assert total == 7 * (per_sample + per_label)
