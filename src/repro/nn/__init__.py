"""A small, from-scratch NumPy neural-network library.

This is the plaintext substrate the paper's prototype implemented "using
Numpy": layers with explicit forward/backward passes, losses, SGD-family
optimizers and a :class:`~repro.nn.model.Sequential` container.  It serves
double duty here:

* as the **baseline** (plain LeNet-5) that Figure 6 / Table III compare
  against, and
* as the plaintext portion of CryptoNN -- every layer *after* the secure
  feed-forward step and *before* the secure evaluation step runs on this
  substrate unchanged, which is the core claim of the framework.
"""

from repro.nn.activations import relu, sigmoid, softmax, tanh
from repro.nn.conv import Conv2D
from repro.nn.layers import Dense, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.lenet import build_lenet5, build_lenet_small
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import SGD, Adam
from repro.nn.pooling import AvgPool2D, MaxPool2D

__all__ = [
    "Adam",
    "AvgPool2D",
    "Conv2D",
    "Dense",
    "Flatten",
    "MaxPool2D",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "SoftmaxCrossEntropyLoss",
    "Tanh",
    "TrainingHistory",
    "accuracy",
    "build_lenet5",
    "build_lenet_small",
    "relu",
    "sigmoid",
    "softmax",
    "tanh",
]
