"""Tests for model / encrypted-dataset persistence."""

import json
import random

import numpy as np
import pytest

from repro.core import serialization as ser
from repro.core.checkpoint import (
    TrainerCheckpoint,
    load_encrypted_tabular,
    load_model_weights,
    save_encrypted_tabular,
    save_model_weights,
)
from repro.core.config import CryptoNNConfig
from repro.core.cryptonn import CryptoNNTrainer
from repro.core.entities import Client, TrustedAuthority
from repro.nn.layers import Dense, ReLU
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import SGD, Adam


class TestModelWeights:
    def test_roundtrip(self, tmp_path, np_rng):
        model = Sequential([Dense(3, 4, rng=np_rng), ReLU(),
                            Dense(4, 2, rng=np_rng)])
        path = tmp_path / "weights.npz"
        save_model_weights(model, path)
        twin = Sequential([Dense(3, 4), ReLU(), Dense(4, 2)])
        load_model_weights(twin, path)
        x = np_rng.normal(size=(5, 3))
        np.testing.assert_allclose(model.predict(x), twin.predict(x))

    def test_architecture_mismatch_detected(self, tmp_path, np_rng):
        model = Sequential([Dense(3, 4, rng=np_rng)])
        path = tmp_path / "weights.npz"
        save_model_weights(model, path)
        wrong = Sequential([Dense(3, 5)])
        with pytest.raises(ValueError):
            load_model_weights(wrong, path)

    def test_missing_key_detected(self, tmp_path, np_rng):
        model = Sequential([Dense(3, 4, rng=np_rng)])
        path = tmp_path / "weights.npz"
        save_model_weights(model, path)
        bigger = Sequential([Dense(3, 4), ReLU(), Dense(4, 2)])
        with pytest.raises(KeyError):
            load_model_weights(bigger, path)

    def test_extra_keys_rejected(self, tmp_path, np_rng):
        """A checkpoint from a deeper model must not load silently
        truncated into a shallower one."""
        deeper = Sequential([Dense(3, 4, rng=np_rng), ReLU(),
                             Dense(4, 2, rng=np_rng)])
        path = tmp_path / "weights.npz"
        save_model_weights(deeper, path)
        shallow = Sequential([Dense(3, 4)])
        with pytest.raises(ValueError, match="does not have"):
            load_model_weights(shallow, path)

    def test_no_tmp_file_left_behind(self, tmp_path, np_rng):
        model = Sequential([Dense(3, 4, rng=np_rng)])
        path = tmp_path / "weights.npz"
        save_model_weights(model, path)
        assert [p.name for p in tmp_path.iterdir()] == ["weights.npz"]

    def test_suffixless_path_gains_npz_like_numpy(self, tmp_path, np_rng):
        """np.savez appends .npz to suffix-less paths; the atomic writer
        must keep that contract (the CLI documents model.json ->
        model.json.npz)."""
        model = Sequential([Dense(3, 4, rng=np_rng)])
        save_model_weights(model, tmp_path / "model.json")
        assert (tmp_path / "model.json.npz").exists()
        twin = Sequential([Dense(3, 4)])
        load_model_weights(twin, tmp_path / "model.json.npz")


class TestTrainerCheckpoint:
    def _model(self, np_rng):
        return Sequential([Dense(3, 4, rng=np_rng), ReLU(),
                           Dense(4, 2, rng=np_rng)])

    def _stepped_optimizer(self, model, opt):
        for layer in model.layers:
            layer.grads = {name: np.ones_like(p)
                           for name, p in layer.params.items()}
        opt.step(model.layers)
        return opt

    def test_roundtrip_preserves_everything(self, tmp_path, np_rng):
        model = self._model(np_rng)
        opt = self._stepped_optimizer(model, SGD(0.1, momentum=0.9))
        rng = np.random.default_rng(42)
        rng.shuffle(np.arange(17))  # advance the stream
        history = TrainingHistory(batch_loss=[0.5, 0.25],
                                  batch_accuracy=[0.5, float("nan")],
                                  epoch_loss=[0.375],
                                  epoch_accuracy=[0.5])
        order = np.asarray([4, 2, 0, 1, 3])
        ckpt = TrainerCheckpoint.capture(
            model, opt, rng, epoch=1, batch_in_epoch=2, batch_counter=7,
            history=history, epoch_order=order,
            run_meta={"batch_size": 5, "loss": "cross_entropy"})
        path = tmp_path / "trainer.npz"
        ckpt.save(path)
        restored = TrainerCheckpoint.load(path)

        assert restored.epoch == 1
        assert restored.batch_in_epoch == 2
        assert restored.batch_counter == 7
        assert restored.completed is False
        assert restored.run_meta == {"batch_size": 5,
                                     "loss": "cross_entropy"}
        assert np.array_equal(restored.epoch_order, order)
        assert restored.history.batch_loss == history.batch_loss
        assert np.isnan(restored.history.batch_accuracy[1])
        assert restored.history.epoch_loss == history.epoch_loss

        # model params restore bit-exactly into a differently-seeded twin
        twin = self._model(np.random.default_rng(999))
        restored.restore_model(twin)
        for mine, theirs in zip(model.get_weights(), twin.get_weights()):
            for name in mine:
                assert np.array_equal(mine[name], theirs[name])

        # optimizer slots restore bit-exactly
        twin_opt = SGD(9.0)
        twin_opt.load_state_dict(restored.optimizer_state)
        assert twin_opt.momentum == 0.9
        assert np.array_equal(twin_opt._velocity[(0, "W")],
                              opt._velocity[(0, "W")])

        # the RNG stream continues identically
        twin_rng = np.random.default_rng(0)
        restored.restore_rng(twin_rng)
        assert twin_rng.integers(0, 2**62) == rng.integers(0, 2**62)

    def test_adam_state_roundtrips(self, tmp_path, np_rng):
        model = self._model(np_rng)
        opt = self._stepped_optimizer(model, Adam(0.01))
        ckpt = TrainerCheckpoint.capture(
            model, opt, None, epoch=0, batch_in_epoch=1, batch_counter=1,
            history=TrainingHistory())
        path = tmp_path / "adam.npz"
        ckpt.save(path)
        restored = TrainerCheckpoint.load(path)
        assert restored.rng_state is None
        twin = Adam()
        twin.load_state_dict(restored.optimizer_state)
        assert twin._t == 1
        assert np.array_equal(twin._m[(2, "W")], opt._m[(2, "W")])
        assert np.array_equal(twin._v[(2, "b")], opt._v[(2, "b")])

    def test_save_is_atomic(self, tmp_path, np_rng):
        model = self._model(np_rng)
        ckpt = TrainerCheckpoint.capture(
            model, SGD(0.1), np.random.default_rng(0), epoch=0,
            batch_in_epoch=0, batch_counter=0, history=TrainingHistory())
        path = tmp_path / "trainer.npz"
        ckpt.save(path)
        ckpt.save(path)  # overwrite goes through the same tmp+rename
        assert [p.name for p in tmp_path.iterdir()] == ["trainer.npz"]

    def test_capture_is_a_deep_snapshot(self, tmp_path, np_rng):
        model = self._model(np_rng)
        history = TrainingHistory(batch_loss=[1.0])
        ckpt = TrainerCheckpoint.capture(
            model, SGD(0.1), None, epoch=0, batch_in_epoch=1,
            batch_counter=1, history=history)
        model.layers[0].params["W"][...] = 7.0
        history.batch_loss.append(2.0)
        assert not np.any(ckpt.model_weights[0]["W"] == 7.0)
        assert ckpt.history.batch_loss == [1.0]

    def test_restore_model_rejects_mismatch(self, tmp_path, np_rng):
        model = self._model(np_rng)
        ckpt = TrainerCheckpoint.capture(
            model, SGD(0.1), None, epoch=0, batch_in_epoch=0,
            batch_counter=0, history=TrainingHistory())
        with pytest.raises(ValueError):
            ckpt.restore_model(Sequential([Dense(3, 4)]))
        with pytest.raises(ValueError):
            ckpt.restore_model(Sequential([Dense(3, 5), ReLU(),
                                           Dense(5, 2)]))

    def test_bad_file_rejected(self, tmp_path, np_rng):
        path = tmp_path / "weights.npz"
        save_model_weights(self._model(np_rng), path)
        with pytest.raises(ValueError, match="not a trainer checkpoint"):
            TrainerCheckpoint.load(path)

    def test_peek_meta(self, tmp_path, np_rng):
        model = self._model(np_rng)
        ckpt = TrainerCheckpoint.capture(
            model, SGD(0.1), None, epoch=2, batch_in_epoch=3,
            batch_counter=11, history=TrainingHistory(), completed=True)
        path = tmp_path / "trainer.npz"
        ckpt.save(path)
        assert TrainerCheckpoint.peek_meta(path) == {
            "epoch": 2, "batch_in_epoch": 3, "batch_counter": 11,
            "completed": True}


class TestEncryptedDataset:
    @pytest.fixture()
    def authority(self):
        return TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))

    def test_roundtrip_preserves_everything(self, tmp_path, authority, np_rng):
        client = Client(authority)
        x = np_rng.uniform(-1, 1, size=(6, 3))
        y = np_rng.integers(0, 2, size=6)
        dataset = client.encrypt_tabular(x, y, num_classes=2)
        path = tmp_path / "dataset.json"
        save_encrypted_tabular(dataset, path)
        restored = load_encrypted_tabular(path)
        assert len(restored) == 6
        assert restored.n_features == 3
        assert restored.scale == dataset.scale
        assert restored.eval_labels.tolist() == dataset.eval_labels.tolist()
        assert restored.samples[0].features_ip == dataset.samples[0].features_ip
        assert restored.labels[0].onehot_bo == dataset.labels[0].onehot_bo

    def test_restored_dataset_trains(self, tmp_path, authority, np_rng):
        """The true test: the reloaded ciphertexts decrypt correctly in
        a full training iteration."""
        client = Client(authority)
        x = np_rng.uniform(-1, 1, size=(12, 3))
        y = (x[:, 0] > 0).astype(int)
        dataset = client.encrypt_tabular(x, y, num_classes=2)
        path = tmp_path / "dataset.json"
        save_encrypted_tabular(dataset, path)
        restored = load_encrypted_tabular(path)
        model = Sequential([Dense(3, 4, rng=np_rng), ReLU(),
                            Dense(4, 2, rng=np_rng)])
        trainer = CryptoNNTrainer(model, authority)
        hist = trainer.fit(restored, SGD(0.5), epochs=1, batch_size=6,
                           rng=np.random.default_rng(0))
        assert len(hist.batch_loss) == 2

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_encrypted_tabular(path)

    def test_v2_file_rejected(self, tmp_path, authority, np_rng):
        """v2 files stored raw residues, about half of them above q; the
        v3 loader refuses the format instead of calling them tampered."""
        x = np_rng.uniform(-1, 1, size=(2, 2))
        dataset = Client(authority).encrypt_tabular(x, np.array([0, 1]), 2)
        path = tmp_path / "dataset.enc"
        save_encrypted_tabular(dataset, path)
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert header["format"] == "repro.encrypted-tabular.v3"
        header["format"] = "repro.encrypted-tabular.v2"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="not an encrypted-tabular file"):
            load_encrypted_tabular(path)

    def test_non_subgroup_element_rejected_on_load(self, tmp_path,
                                                   authority, np_rng):
        """A dataset file goes through the same validating unpack as an
        upload: p - 1 (a quadratic non-residue) must not load."""
        x = np_rng.uniform(-1, 1, size=(2, 2))
        dataset = Client(authority).encrypt_tabular(x, np.array([0, 1]), 2)
        path = tmp_path / "dataset.enc"
        save_encrypted_tabular(dataset, path)
        params = authority.params
        width = ser.element_size_bytes(params)
        head, _, body = path.read_bytes().partition(b"\n")
        # the first element of the body is sample 0's ct0
        body = (params.p - 1).to_bytes(width, "big") + body[width:]
        path.write_bytes(head + b"\n" + body)
        with pytest.raises(ValueError, match="subgroup"):
            load_encrypted_tabular(path)

    def test_none_eval_labels_roundtrip(self, tmp_path, authority, np_rng):
        client = Client(authority)
        x = np_rng.uniform(-1, 1, size=(2, 2))
        dataset = client.encrypt_tabular(x, np.array([0, 1]), num_classes=2)
        dataset.eval_labels = None
        path = tmp_path / "noeval.json"
        save_encrypted_tabular(dataset, path)
        assert load_encrypted_tabular(path).eval_labels is None
