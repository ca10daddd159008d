#!/usr/bin/env python3
"""Federated clinics: training an MLP diagnostic model over encrypted data.

The paper's motivating scenario (Section I): distributed federal clinics
want a cloud-trained diagnostic model, but regulations forbid shipping
plaintext patient records.  Each clinic encrypts its shard under the
shared authority's public key; the server trains a CryptoNN model over
the union without ever seeing features or labels.

Run:  python examples/clinic_mlp.py
"""

import random

import numpy as np

from repro.core import CryptoNNConfig, CryptoNNTrainer, TrustedAuthority
from repro.core.encdata import EncryptedTabularDataset
from repro.core.entities import Client
from repro.data import LabelMapper, load_clinics, one_hot
from repro.nn import SGD, Dense, ReLU, Sequential, SoftmaxCrossEntropyLoss


def merge_encrypted(parts):
    """Server-side concatenation of shards from different clinics."""
    first = parts[0]
    return EncryptedTabularDataset(
        samples=[s for p in parts for s in p.samples],
        labels=[l for p in parts for l in p.labels],
        num_classes=first.num_classes,
        n_features=first.n_features,
        scale=first.scale,
        eval_labels=np.concatenate([p.eval_labels for p in parts]),
    )


def main() -> None:
    # -- authority bootstraps the crypto system -----------------------------
    # toy group for the demo; CryptoNNConfig(security_bits=256) is the
    # paper's setting
    config = CryptoNNConfig()
    authority = TrustedAuthority(config, rng=random.Random(0))

    # -- three clinics encrypt their (non-IID) shards -----------------------
    shards = load_clinics(n_clinics=3, samples_per_clinic=100, n_features=8,
                          seed=1)
    max_abs = max(np.abs(s.x).max() for s in shards) + 1e-9
    label_mapper = LabelMapper(2, np.random.default_rng(99))  # shared secret
    encrypted_shards = []
    for i, shard in enumerate(shards):
        clinic = Client(authority, label_mapper=label_mapper,
                        name=f"clinic-{i}")
        normalized = np.clip(shard.x / max_abs, -1, 1)
        encrypted_shards.append(
            clinic.encrypt_tabular(normalized, shard.y, num_classes=2)
        )
        print(f"clinic-{i}: encrypted {len(shard)} records")

    dataset = merge_encrypted(encrypted_shards)
    print(f"server: received {len(dataset)} encrypted records\n")

    # -- server trains without seeing any plaintext -------------------------
    rng = np.random.default_rng(0)
    model = Sequential([
        Dense(8, 16, rng=rng), ReLU(),
        Dense(16, 2, rng=rng),
    ])
    trainer = CryptoNNTrainer(model, authority)
    history = trainer.fit(dataset, SGD(0.5), epochs=4, batch_size=25,
                          rng=np.random.default_rng(1),
                          on_batch=lambda i, loss, acc: print(
                              f"  iter {i:3d}  loss={loss:.3f}  batch-acc={acc:.2f}")
                          if i % 6 == 0 else None)
    print(f"\nencrypted-training accuracy: {trainer.evaluate(dataset):.2%}")

    # -- plaintext twin for reference (same weights, same batches) ----------
    twin = Sequential([Dense(8, 16), ReLU(), Dense(16, 2)])
    twin.set_weights(model.get_weights())  # final weights -> same predictions
    merged_x = np.concatenate([np.clip(s.x / max_abs, -1, 1) for s in shards])
    wire_labels = dataset.eval_labels
    print(f"plaintext check with same weights: "
          f"{twin.evaluate(merged_x, one_hot(wire_labels, 2)):.2%}")

    # -- what the protocol cost ----------------------------------------------
    print("\nprotocol traffic (bytes by message kind):")
    for kind, total in sorted(authority.traffic.by_kind().items()):
        print(f"  {kind:20s} {total:>12,}")
    print(f"\nauthority issued {authority.feip_keys_issued} FEIP keys and "
          f"{authority.febo_keys_issued} FEBO keys")
    print(f"server performed {trainer.counters.feip_decrypts} FEIP decrypts "
          f"and {trainer.counters.febo_decrypts} FEBO decrypts")


if __name__ == "__main__":
    main()
