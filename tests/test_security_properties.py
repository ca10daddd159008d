"""Statistical / structural security sanity checks (paper Section IV-A).

These are not proofs -- IND-CPA rests on DDH -- but they verify the
mechanical properties the proofs rely on: fresh randomness per
encryption, ciphertexts living in the right subgroup, keys revealing only
the function value, and the label-mapping mitigation actually hiding the
logical labels.
"""

import random

import numpy as np
import pytest

from repro.core.config import CryptoNNConfig
from repro.core.entities import Client, TrustedAuthority
from repro.data.preprocess import LabelMapper
from repro.fe.febo import Febo
from repro.fe.feip import Feip


class TestCiphertextFreshness:
    def test_feip_equal_plaintexts_distinct_ciphertexts(self, feip):
        mpk, _ = feip.setup(3)
        cts = [feip.encrypt(mpk, [1, 2, 3]) for _ in range(20)]
        assert len({ct.ct0 for ct in cts}) == 20
        assert len({ct.ct for ct in cts}) == 20

    def test_febo_equal_plaintexts_distinct_ciphertexts(self, febo):
        mpk, _ = febo.setup()
        cts = [febo.encrypt(mpk, 7) for _ in range(20)]
        assert len({(c.cmt, c.ct) for c in cts}) == 20

    def test_identical_labels_encrypt_differently(self):
        """Paper Section IV-A: 'the encrypted result is uniformly
        distributed in the ciphertext space at random for each same
        label'."""
        authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
        client = Client(authority)
        x = np.zeros((4, 2))
        y = np.zeros(4, dtype=int)  # all the same label
        enc = client.encrypt_tabular(x, y, num_classes=2)
        ip_cts = {label.onehot_ip.ct0 for label in enc.labels}
        assert len(ip_cts) == 4


def _encodes_subgroup_element(group, x) -> bool:
    """``x`` is the canonical form of a subgroup element: it lies in
    ``(0, q]`` and it or its negation ``p - x`` is in the subgroup."""
    return 0 < x <= group.q and 1 in (pow(x, group.q, group.p),
                                      pow(group.p - x, group.q, group.p))


class TestSubgroupMembership:
    def test_feip_ciphertext_elements_in_subgroup(self, feip):
        mpk, _ = feip.setup(2)
        ct = feip.encrypt(mpk, [5, -5])
        assert _encodes_subgroup_element(feip.group, ct.ct0)
        assert all(_encodes_subgroup_element(feip.group, c) for c in ct.ct)

    def test_febo_ciphertext_elements_in_subgroup(self, febo):
        mpk, _ = febo.setup()
        ct = febo.encrypt(mpk, 9)
        assert _encodes_subgroup_element(febo.group, ct.cmt)
        assert _encodes_subgroup_element(febo.group, ct.ct)


class TestFunctionKeyLeakage:
    def test_feip_decrypt_reveals_only_inner_product(self, feip):
        """Two plaintexts with equal <x, y> decrypt identically -- the
        function key cannot distinguish them."""
        mpk, msk = feip.setup(2)
        key = feip.key_derive(msk, [1, 1])
        ct_a = feip.encrypt(mpk, [3, 7])   # sum 10
        ct_b = feip.encrypt(mpk, [6, 4])   # sum 10
        assert feip.decrypt(mpk, ct_a, key, 100) == \
               feip.decrypt(mpk, ct_b, key, 100) == 10

    def test_febo_direct_inference_is_real(self, febo):
        """The attack the paper concedes: knowing y and x*y reveals x.
        Kept as an executable statement of the threat model."""
        mpk, msk = febo.setup()
        secret_x = 37
        ct = febo.encrypt(mpk, secret_x)
        y = 5
        key = febo.key_derive(msk, ct.cmt, "*", y)
        product = febo.decrypt(mpk, key, ct, bound=10_000)
        assert product // y == secret_x


class TestLabelMappingMitigation:
    def test_wire_labels_hide_logical_labels(self):
        rng = np.random.default_rng(11)
        mapper = LabelMapper(10, rng)
        logical = np.arange(10)
        wire = mapper.map_labels(logical)
        # at least some labels must move (overwhelming probability); and
        # the mapping must be invertible only with the secret permutation
        assert (wire != logical).any()
        assert sorted(wire.tolist()) == list(range(10))

    def test_two_mappers_disagree(self):
        a = LabelMapper(10, np.random.default_rng(1))
        b = LabelMapper(10, np.random.default_rng(2))
        assert (a.permutation != b.permutation).any()


class TestDlogBoundAsIntegrityCheck:
    def test_random_group_element_fails_decryption(self, feip):
        """A ciphertext element replaced by a random group element produces
        an out-of-window dlog with overwhelming probability."""
        from repro.mathutils.dlog import DiscreteLogError
        mpk, msk = feip.setup(2)
        key = feip.key_derive(msk, [1, 2])
        ct = feip.encrypt(mpk, [1, 1])
        forged = type(ct)(ct0=ct.ct0, ct=(feip.group.random_element(),
                                          ct.ct[1]))
        with pytest.raises(DiscreteLogError):
            feip.decrypt(mpk, forged, key, bound=10_000)
