"""Persistence for models, encrypted datasets and full trainer state.

Clients encrypt once and may ship the ciphertexts to the server through
any channel -- including disk.  This module round-trips encrypted
tabular datasets (a JSON header line plus the binary body of the shard
codec in :mod:`repro.core.serialization`, the same bytes an upload
sends), bare model weights (``.npz``), and -- for exact resume -- the
complete trainer state as a :class:`TrainerCheckpoint`.

A trainer checkpoint is a single ``.npz`` archive holding the model
parameters, the optimizer's ``state_dict()`` (velocity / Adam moments /
timestep), the NumPy bit-generator state driving the shuffle stream,
the in-flight epoch's permutation, epoch/batch counters and the
:class:`~repro.nn.model.TrainingHistory`, plus a JSON metadata blob
(``__meta__``) fingerprinting the run.  Every write is atomic
(tmp-then-``os.replace``), so a crash mid-write leaves the previous
checkpoint intact.

SECURITY: a trainer checkpoint contains *no key material* -- only
plaintext model state the server already holds.  The authority file
(:func:`save_authority`) is the only artifact carrying master secrets
and stays separate on purpose.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pathlib
import random

import numpy as np

from repro.core import serialization as ser
from repro.core.config import CryptoNNConfig
from repro.core.encdata import EncryptedTabularDataset
from repro.core.entities import TrustedAuthority
from repro.fe.keys import FeboMasterKey, FeboPublicKey, FeipMasterKey, FeipPublicKey
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import Optimizer


TRAINER_CHECKPOINT_FORMAT = "repro.trainer-checkpoint.v1"


# -- atomic writes -----------------------------------------------------------

def _atomic_write_bytes(path: str | pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp-then-rename, fsynced.

    A reader (or a process killed mid-write) either sees the previous
    complete file or the new complete file, never a torn one.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def npz_path(path: str | pathlib.Path) -> pathlib.Path:
    """``np.savez`` appends ``.npz`` to suffix-less paths; keep that
    contract so saving to ``model.json`` still produces ``model.json.npz``
    and save/load/exists all agree on the final name."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _atomic_write_npz(path: str | pathlib.Path,
                      arrays: dict[str, np.ndarray]) -> None:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    _atomic_write_bytes(npz_path(path), buffer.getvalue())


# -- model weights -----------------------------------------------------------

def save_model_weights(model: Sequential, path: str | pathlib.Path) -> None:
    """Write all layer parameters to a compressed ``.npz`` archive."""
    arrays: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        for name, value in layer.params.items():
            arrays[f"layer{i}.{name}"] = value
    _atomic_write_npz(path, arrays)


def load_model_weights(model: Sequential, path: str | pathlib.Path) -> None:
    """Load parameters saved by :func:`save_model_weights` into ``model``.

    The archive's key set must match the model's parameters *exactly*:
    a missing key raises ``KeyError``, an extra key (a checkpoint from a
    deeper model would otherwise load silently truncated) raises
    ``ValueError``, as does any shape mismatch.
    """
    expected = {f"layer{i}.{name}"
                for i, layer in enumerate(model.layers)
                for name in layer.params}
    with np.load(path) as archive:
        extra = set(archive.files) - expected
        if extra:
            raise ValueError(
                f"checkpoint holds parameters the model does not have: "
                f"{sorted(extra)} (wrong architecture?)")
        for i, layer in enumerate(model.layers):
            for name, param in layer.params.items():
                key = f"layer{i}.{name}"
                if key not in archive:
                    raise KeyError(f"checkpoint is missing {key}")
                stored = archive[key]
                if stored.shape != param.shape:
                    raise ValueError(
                        f"{key} shape {stored.shape} != model {param.shape}"
                    )
                param[...] = stored


# -- encrypted tabular datasets ------------------------------------------------

#: v3 stores every element in signed (canonical) form; a v2 file holds
#: raw residues, about half of them above q, which the v3 load would
#: report as tampered, so it is refused as a different format instead
ENCRYPTED_TABULAR_FORMAT = "repro.encrypted-tabular.v3"


def save_encrypted_tabular(dataset: EncryptedTabularDataset,
                           path: str | pathlib.Path) -> None:
    """Write an encrypted tabular dataset to a file.

    The file is one JSON header line (format tag, group parameters and
    the shard codec's meta) followed by the packed ciphertext body: the
    same bytes an RPC upload sends.  ``eval_labels`` (the harness-only
    ground truth) is included when present; a real client shipping data
    to an untrusted server would strip it first.
    """
    if dataset.params is None:
        raise ValueError("dataset does not record its group parameters")
    meta, body = ser.pack_encrypted_tabular(dataset, dataset.params)
    header = {"format": ENCRYPTED_TABULAR_FORMAT,
              "group": ser.group_params_to_dict(dataset.params),
              "meta": meta}
    _atomic_write_bytes(
        path, json.dumps(header).encode("utf-8") + b"\n" + body)


def load_encrypted_tabular(path: str | pathlib.Path
                           ) -> EncryptedTabularDataset:
    """Inverse of :func:`save_encrypted_tabular`.

    Runs the same validating unpack as an upload, so a tampered file
    fails with ``ValueError`` instead of reaching the trainer.
    """
    head, _, body = pathlib.Path(path).read_bytes().partition(b"\n")
    header = json.loads(head)
    if not isinstance(header, dict) \
            or header.get("format") != ENCRYPTED_TABULAR_FORMAT:
        raise ValueError(f"not an encrypted-tabular file: {path}")
    return ser.unpack_encrypted_tabular(
        header["meta"], body, ser.group_params_from_dict(header["group"]))


# -- authority state -------------------------------------------------------------

def save_authority(authority: TrustedAuthority,
                   path: str | pathlib.Path) -> None:
    """Persist the authority's master keys.

    SECURITY: this file *is* the master secret key material.  It exists
    so the CLI / multi-process experiments can resume a crypto context;
    treat it like a private key file.
    """
    payload = {
        "format": "repro.authority.v1",
        "security_bits": authority.config.security_bits,
        "scale": authority.config.scale,
        "max_abs_feature": authority.config.max_abs_feature,
        "max_abs_weight": authority.config.max_abs_weight,
        # repro: allow[key-serialization] -- the authority key file IS
        # the master-key artifact (see SECURITY note above)
        "febo_msk": authority._febo_pair[1].s,
        # repro: allow[key-serialization] -- same: this file never
        # leaves the authority
        "feip_msks": {
            str(eta): list(msk.s)
            for eta, (_, msk) in authority._feip_pairs.items()
        },
    }
    _atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))


def load_authority(path: str | pathlib.Path,
                   rng: random.Random | None = None) -> TrustedAuthority:
    """Rebuild a :class:`TrustedAuthority` from :func:`save_authority`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("format") != "repro.authority.v1":
        raise ValueError(f"not an authority checkpoint: {path}")
    config = CryptoNNConfig(
        security_bits=int(payload["security_bits"]),
        scale=int(payload["scale"]),
        max_abs_feature=float(payload["max_abs_feature"]),
        max_abs_weight=float(payload["max_abs_weight"]),
    )
    authority = TrustedAuthority(config, rng=rng)
    group = authority.feip.group
    febo_s = int(payload["febo_msk"])
    authority._febo_pair = (
        FeboPublicKey(params=authority.params, h=group.gexp(febo_s)),
        FeboMasterKey(s=febo_s),
    )
    for eta_str, s_list in payload["feip_msks"].items():
        s = tuple(int(v) for v in s_list)
        mpk = FeipPublicKey(params=authority.params,
                            h=tuple(group.gexp(si) for si in s))
        authority._feip_pairs[int(eta_str)] = (mpk, FeipMasterKey(s=s))
    return authority


# -- full trainer state (exact resume) ---------------------------------------

def _jsonify(obj):
    """RNG bit-generator states mix ints with ndarrays (Philox/SFC64);
    tag ndarrays so the structure survives a JSON round trip exactly."""
    if isinstance(obj, dict):
        return {key: _jsonify(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _dejsonify(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.asarray(obj["__ndarray__"], dtype=obj["dtype"])
        return {key: _dejsonify(value) for key, value in obj.items()}
    return obj


def _extract_arrays(obj, arrays: dict[str, np.ndarray], prefix: str):
    """Replace ndarray leaves with references into the npz ``arrays``
    dict, returning the JSON-safe skeleton."""
    if isinstance(obj, np.ndarray):
        key = prefix
        arrays[key] = obj
        return {"__npz__": key}
    if isinstance(obj, dict):
        return {k: _extract_arrays(v, arrays, f"{prefix}/{k}")
                for k, v in obj.items()}
    return _jsonify(obj)


def _reinsert_arrays(obj, archive):
    if isinstance(obj, dict):
        if "__npz__" in obj:
            return archive[obj["__npz__"]]
        return {k: _reinsert_arrays(v, archive) for k, v in obj.items()}
    return _dejsonify(obj)


@dataclasses.dataclass
class TrainerCheckpoint:
    """Everything ``fit()`` needs to continue a run bit-exactly.

    ``epoch`` / ``batch_in_epoch`` count *completed* work: the
    checkpoint was taken after ``batch_in_epoch`` batches of epoch
    ``epoch`` (0-based) finished.  ``epoch_order`` is the in-flight
    epoch's full shuffle permutation, so a mid-epoch resume replays the
    exact remaining batch schedule; ``rng_state`` is the bit-generator
    state *at checkpoint time*, so every later epoch draws the same
    permutations the uninterrupted run would.

    Contains no key material -- see the module docstring.
    """

    model_weights: list[dict[str, np.ndarray]]
    optimizer_state: dict
    rng_state: dict | None
    epoch: int
    batch_in_epoch: int
    batch_counter: int
    history: TrainingHistory
    epoch_order: np.ndarray | None = None
    completed: bool = False
    run_meta: dict = dataclasses.field(default_factory=dict)

    # -- capture / restore ---------------------------------------------------
    @classmethod
    def capture(cls, model: Sequential, optimizer: Optimizer,
                rng: np.random.Generator | None, *, epoch: int,
                batch_in_epoch: int, batch_counter: int,
                history: TrainingHistory,
                epoch_order: np.ndarray | None = None,
                completed: bool = False,
                run_meta: dict | None = None) -> "TrainerCheckpoint":
        """Deep-copying snapshot of the live training loop."""
        return cls(
            model_weights=model.get_weights(),
            optimizer_state=optimizer.state_dict(),
            rng_state=(dict(rng.bit_generator.state)
                       if rng is not None else None),
            epoch=epoch,
            batch_in_epoch=batch_in_epoch,
            batch_counter=batch_counter,
            history=TrainingHistory.from_dict(history.to_dict()),
            epoch_order=(None if epoch_order is None
                         else np.array(epoch_order, copy=True)),
            completed=completed,
            run_meta=dict(run_meta or {}),
        )

    def restore_model(self, model: Sequential) -> None:
        """Load the checkpointed parameters into ``model``, strictly:
        layer count, per-layer key sets and shapes must all match."""
        if len(self.model_weights) != len(model.layers):
            raise ValueError(
                f"checkpoint has {len(self.model_weights)} layers, "
                f"model has {len(model.layers)}")
        for i, (layer, weights) in enumerate(
                zip(model.layers, self.model_weights)):
            if set(weights) != set(layer.params):
                raise ValueError(
                    f"layer {i} parameters {sorted(layer.params)} != "
                    f"checkpoint {sorted(weights)}")
            for name, value in weights.items():
                if layer.params[name].shape != value.shape:
                    raise ValueError(
                        f"layer {i}.{name} shape {value.shape} != "
                        f"model {layer.params[name].shape}")
                layer.params[name][...] = value

    def restore_rng(self, rng: np.random.Generator) -> None:
        rng.bit_generator.state = self.rng_state

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> None:
        """Atomic single-file ``.npz`` write (tmp-then-rename)."""
        arrays: dict[str, np.ndarray] = {}
        layer_params: list[list[str]] = []
        for i, weights in enumerate(self.model_weights):
            layer_params.append(sorted(weights))
            for name, value in weights.items():
                arrays[f"model.layer{i}.{name}"] = value
        optimizer_skeleton = _extract_arrays(
            self.optimizer_state, arrays, "opt")
        if self.epoch_order is not None:
            arrays["epoch_order"] = np.asarray(self.epoch_order,
                                               dtype=np.int64)
        meta = {
            "format": TRAINER_CHECKPOINT_FORMAT,
            "epoch": int(self.epoch),
            "batch_in_epoch": int(self.batch_in_epoch),
            "batch_counter": int(self.batch_counter),
            "completed": bool(self.completed),
            "layer_params": layer_params,
            "optimizer": optimizer_skeleton,
            "rng_state": _jsonify(self.rng_state),
            "history": self.history.to_dict(),
            "run_meta": _jsonify(self.run_meta),
        }
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        _atomic_write_npz(path, arrays)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "TrainerCheckpoint":
        with np.load(npz_path(path)) as archive:
            if "__meta__" not in archive:
                raise ValueError(f"not a trainer checkpoint: {path}")
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
            if meta.get("format") != TRAINER_CHECKPOINT_FORMAT:
                raise ValueError(
                    f"not a trainer checkpoint: {path} "
                    f"(format {meta.get('format')!r})")
            model_weights = [
                {name: archive[f"model.layer{i}.{name}"] for name in names}
                for i, names in enumerate(meta["layer_params"])
            ]
            optimizer_state = _reinsert_arrays(meta["optimizer"], archive)
            epoch_order = (archive["epoch_order"]
                           if "epoch_order" in archive else None)
        return cls(
            model_weights=model_weights,
            optimizer_state=optimizer_state,
            rng_state=_dejsonify(meta["rng_state"]),
            epoch=int(meta["epoch"]),
            batch_in_epoch=int(meta["batch_in_epoch"]),
            batch_counter=int(meta["batch_counter"]),
            history=TrainingHistory.from_dict(meta["history"]),
            epoch_order=epoch_order,
            completed=bool(meta["completed"]),
            run_meta=_dejsonify(meta.get("run_meta", {})),
        )

    @staticmethod
    def peek_meta(path: str | pathlib.Path) -> dict:
        """Counters/flags only (no arrays decompressed beyond the blob) --
        cheap enough for a status endpoint to call per poll."""
        with np.load(npz_path(path)) as archive:
            if "__meta__" not in archive:
                raise ValueError(f"not a trainer checkpoint: {path}")
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        return {
            "epoch": int(meta.get("epoch", 0)),
            "batch_in_epoch": int(meta.get("batch_in_epoch", 0)),
            "batch_counter": int(meta.get("batch_counter", 0)),
            "completed": bool(meta.get("completed", False)),
        }
