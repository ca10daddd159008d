#!/usr/bin/env python3
"""CryptoCNN vs plain CNN on digit images (paper Section III-E / Fig. 6).

Trains a LeNet-style CNN twice from identical initial weights: once on
plaintext images, once over encrypted images with the secure convolution
(Algorithm 3) feed-forward and secure softmax/cross-entropy evaluation.
Prints the per-iteration batch-accuracy comparison behind Figure 6.

Run:  python examples/crypto_cnn_digits.py            (scaled-down, ~1 min)
      REPRO_N=600 python examples/crypto_cnn_digits.py  (bigger run)
"""

import os
import random
import time

import numpy as np

from repro.core import CryptoCNNTrainer, CryptoNNConfig, TrustedAuthority
from repro.core.entities import Client
from repro.data import load_synth_digits, one_hot
from repro.nn import SGD, SoftmaxCrossEntropyLoss, build_lenet_small

N_TRAIN = int(os.environ.get("REPRO_N", "200"))
BATCH = 20
EPOCHS = 2


def main() -> None:
    train, test = load_synth_digits(n_train=N_TRAIN, n_test=max(N_TRAIN // 4, 40),
                                    canvas=8, seed=0)
    print(f"dataset: {len(train)} train / {len(test)} test synthetic digits "
          f"(procedurally rendered MNIST stand-in)\n")

    # twin models from identical weights
    plain_model = build_lenet_small(np.random.default_rng(0), image_size=8)
    crypto_model = build_lenet_small(np.random.default_rng(1), image_size=8)
    crypto_model.set_weights(plain_model.get_weights())

    # --- plaintext pipeline -------------------------------------------------
    t0 = time.perf_counter()
    plain_hist = plain_model.fit(
        train.x, one_hot(train.y, 10), SoftmaxCrossEntropyLoss(), SGD(0.5),
        epochs=EPOCHS, batch_size=BATCH, rng=np.random.default_rng(2),
    )
    plain_seconds = time.perf_counter() - t0
    plain_acc = plain_model.evaluate(test.x, one_hot(test.y, 10))

    # --- encrypted pipeline ---------------------------------------------------
    authority = TrustedAuthority(CryptoNNConfig(), rng=random.Random(0))
    client = Client(authority)
    t0 = time.perf_counter()
    enc_train = client.encrypt_images(train.x, train.y, num_classes=10,
                                      filter_size=3, stride=1, padding=1)
    enc_test = client.encrypt_images(test.x, test.y, num_classes=10,
                                     filter_size=3, stride=1, padding=1)
    encrypt_seconds = time.perf_counter() - t0
    print(f"client: encrypted {len(train) + len(test)} images "
          f"in {encrypt_seconds:.1f}s")

    trainer = CryptoCNNTrainer(crypto_model, authority)
    t0 = time.perf_counter()
    crypto_hist = trainer.fit(enc_train, SGD(0.5), epochs=EPOCHS,
                              batch_size=BATCH, rng=np.random.default_rng(2))
    crypto_seconds = time.perf_counter() - t0
    crypto_acc = trainer.evaluate(enc_test)

    # --- the Figure 6 comparison ---------------------------------------------
    print("\naverage batch accuracy (windows of 4 batches):")
    print("window   plain   crypto")
    window = 4
    for i in range(0, len(plain_hist.batch_accuracy), window):
        plain_avg = np.mean(plain_hist.batch_accuracy[i:i + window])
        crypto_avg = np.mean(crypto_hist.batch_accuracy[i:i + window])
        print(f"{i // window:6d}   {plain_avg:.3f}   {crypto_avg:.3f}")

    print(f"\ntest accuracy:  plain {plain_acc:.2%}   crypto {crypto_acc:.2%}")
    print(f"training time:  plain {plain_seconds:.1f}s   "
          f"crypto {crypto_seconds:.1f}s "
          f"({crypto_seconds / max(plain_seconds, 1e-9):.0f}x slower; the "
          f"paper saw 57h vs 4h at MNIST scale)")
    print(f"\nserver decrypt counters: {trainer.counters.snapshot()}")


if __name__ == "__main__":
    main()
