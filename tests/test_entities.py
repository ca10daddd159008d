"""Tests for the authority / client entities."""

import random

import numpy as np
import pytest

from repro.core import protocol
from repro.core import serialization as ser
from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.core.policy import KeyReleasePolicy, PolicyViolation
from repro.data.preprocess import LabelMapper
from repro.fe.errors import UnsupportedOperationError
from repro.matrix.parallel import SecureComputePool


@pytest.fixture()
def authority():
    return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))


class TestAuthority:
    def test_feip_public_key_cached_per_eta(self, authority):
        a = authority.feip_public_key(5)
        b = authority.feip_public_key(5)
        c = authority.feip_public_key(7)
        assert a is b
        assert c.eta == 7

    def test_derive_feip_keys_counts_and_traffic(self, authority):
        before = authority.feip_keys_issued
        keys = authority.derive_feip_keys([[1, 2], [3, 4], [5, 6]])
        assert len(keys) == 3
        assert authority.feip_keys_issued == before + 3
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_REQUEST) > 0
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_FEIP_KEY_RESPONSE) > 0

    def test_derive_feip_keys_ragged_rows_rejected(self, authority):
        with pytest.raises(ValueError):
            authority.derive_feip_keys([[1, 2], [3]])

    def test_derive_feip_keys_empty(self, authority):
        assert authority.derive_feip_keys([]) == []

    def test_permitted_ops_enforced(self):
        authority = TrustedAuthority(
            CryptoNNConfig(), rng=random.Random(0),
            permitted_ops=frozenset("+-"),
        )
        client = Client(authority)
        ct = authority.febo.encrypt(authority.febo_public_key(), 5)
        with pytest.raises(UnsupportedOperationError):
            authority.derive_febo_keys([(ct.cmt, "*", 2)])

    @pytest.mark.parametrize("permitted_ops, policy, error", [
        (frozenset("+-"), None, UnsupportedOperationError),
        (frozenset("+-*/"), KeyReleasePolicy(allowed_febo_ops=frozenset("+")),
         PolicyViolation),
    ])
    def test_refused_febo_request_is_never_dispatched(
            self, permitted_ops, policy, error):
        authority = TrustedAuthority(
            CryptoNNConfig(), rng=random.Random(0),
            permitted_ops=permitted_ops, policy=policy)
        authority.pool = pool = SecureComputePool(workers=2)
        cmt = authority.febo.encrypt(authority.febo_public_key(), 5).cmt
        with pytest.raises(error):
            authority.derive_febo_keys([(cmt, "+", 2), (cmt, "*", 3)])
        assert pool.stats["dispatches"] == 0 and not pool.started
        assert authority.febo_keys_issued == 0

    def test_derive_febo_keys_empty_records_no_traffic(self, authority):
        assert authority.derive_febo_keys([]) == []
        assert authority.traffic.message_count() == 0

    def test_derive_febo_keys_work(self, authority):
        bpk = authority.febo_public_key()
        ct = authority.febo.encrypt(bpk, 5)
        keys = authority.derive_febo_keys([(ct.cmt, "+", 2), (ct.cmt, "*", 3)])
        assert len(keys) == 2
        assert authority.febo_keys_issued == 2


class TestClient:
    def test_encrypt_tabular_structure(self, authority):
        client = Client(authority)
        x = np.random.default_rng(0).uniform(-1, 1, size=(4, 3))
        y = np.array([0, 1, 1, 0])
        enc = client.encrypt_tabular(x, y, num_classes=2)
        assert len(enc) == 4
        assert enc.n_features == 3
        assert enc.samples[0].n_features == 3
        assert enc.labels[0].num_classes == 2
        assert enc.eval_labels.tolist() == y.tolist()

    def test_encrypt_tabular_range_check(self, authority):
        client = Client(authority)
        x = np.full((2, 2), 5.0)  # exceeds max_abs_feature
        with pytest.raises(ValueError, match="max_abs_feature"):
            client.encrypt_tabular(x, np.array([0, 1]), 2)

    def test_encrypt_tabular_rejects_3d(self, authority):
        client = Client(authority)
        with pytest.raises(ValueError):
            client.encrypt_tabular(np.zeros((2, 2, 2)), np.zeros(2), 2)

    def test_label_mapper_applied(self, authority):
        rng = np.random.default_rng(5)
        mapper = LabelMapper(4, rng)
        client = Client(authority, label_mapper=mapper)
        x = np.zeros((4, 2))
        y = np.array([0, 1, 2, 3])
        enc = client.encrypt_tabular(x, y, num_classes=4)
        assert enc.eval_labels.tolist() == mapper.map_labels(y).tolist()

    def test_encrypt_images_structure(self, authority):
        client = Client(authority)
        imgs = np.random.default_rng(1).uniform(0, 1, size=(2, 1, 5, 5))
        labels = np.array([3, 7])
        enc = client.encrypt_images(imgs, labels, num_classes=10,
                                    filter_size=3, stride=2, padding=1)
        assert len(enc) == 2
        assert enc.images[0].windows.out_shape == (3, 3)  # paper Fig.2 geometry
        assert enc.images[0].pixels_bo.shape == (1, 5, 5)
        assert enc.filter_size == 3

    def test_encrypt_images_rejects_bad_shape(self, authority):
        client = Client(authority)
        with pytest.raises(ValueError):
            client.encrypt_images(np.zeros((2, 5, 5)), np.zeros(2), 10, 3)

    def test_upload_traffic_recorded(self, authority):
        client = Client(authority)
        x = np.random.default_rng(0).uniform(-1, 1, size=(3, 2))
        client.encrypt_tabular(x, np.array([0, 1, 0]), 2)
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_ENCRYPTED_DATA) > 0

    def test_image_upload_bytes_match_the_ciphertexts(self):
        """The recorded image upload counts every ciphertext the client
        made: each window, each pixel and each image's one-hot label."""
        authority = TrustedAuthority(CryptoNNConfig(security_bits=32),
                                     rng=random.Random(0))
        imgs = np.random.default_rng(2).uniform(0, 1, size=(2, 1, 4, 4))
        enc = Client(authority).encrypt_images(
            imgs, np.array([2, 0]), num_classes=3, filter_size=3,
            padding=1)
        params = authority.params
        febo = ser.febo_ciphertext_wire_size(params)
        expected = sum(
            sum(ser.feip_ciphertext_wire_size(ct, params)
                for ct in image.windows.windows)
            + image.pixels_bo.size * febo
            + ser.feip_ciphertext_wire_size(label.onehot_ip, params)
            + len(label.onehot_bo) * febo
            for image, label in zip(enc.images, enc.labels))
        assert expected == 1616
        assert authority.traffic.total_bytes(
            kind=protocol.KIND_ENCRYPTED_DATA) == expected
