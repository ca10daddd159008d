"""Datasets and pre-processing for the CryptoNN experiments.

The paper evaluates on MNIST; this environment has no network access, so
:mod:`repro.data.synth_digits` provides a procedurally-generated stand-in
with the same task structure (10-class digit images) and the same crypto
code path.  :mod:`repro.data.tabular` generates the "federated clinics"
binary-classification data motivating the paper's introduction.
"""

from repro.data.datasets import Dataset
from repro.data.preprocess import (
    LabelMapper,
    normalize_features,
    one_hot,
    shared_feature_scale,
)
from repro.data.synth_digits import load_synth_digits, render_digit
from repro.data.tabular import load_clinics

__all__ = [
    "Dataset",
    "LabelMapper",
    "load_clinics",
    "load_synth_digits",
    "normalize_features",
    "one_hot",
    "render_digit",
    "shared_feature_scale",
]
