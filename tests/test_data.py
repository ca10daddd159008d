"""Tests for the data substrate: synthetic digits, tabular, pre-processing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.datasets import Dataset, train_test_split
from repro.data.preprocess import LabelMapper, flatten_images, one_hot
from repro.data.synth_digits import (
    GLYPH_HEIGHT,
    glyph_bitmap,
    load_synth_digits,
    render_digit,
)
from repro.data.tabular import load_clinics, merge_shards


class TestGlyphs:
    def test_all_digits_have_glyphs(self):
        for d in range(10):
            bitmap = glyph_bitmap(d)
            assert bitmap.shape == (7, 5)
            assert bitmap.sum() > 0

    def test_glyphs_are_distinct(self):
        bitmaps = [glyph_bitmap(d).tobytes() for d in range(10)]
        assert len(set(bitmaps)) == 10

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            glyph_bitmap(10)


class TestRenderDigit:
    def test_range_and_shape(self, np_rng):
        img = render_digit(3, canvas=8, rng=np_rng)
        assert img.shape == (8, 8)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_canvas_too_small(self, np_rng):
        with pytest.raises(ValueError):
            render_digit(0, canvas=GLYPH_HEIGHT - 1, rng=np_rng)

    def test_noise_free_render_is_deterministic_per_seed(self):
        a = render_digit(5, rng=np.random.default_rng(7))
        b = render_digit(5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_randomized_renders_differ(self, np_rng):
        a = render_digit(5, rng=np_rng)
        b = render_digit(5, rng=np_rng)
        assert not np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(digit=st.integers(0, 9), canvas=st.sampled_from([8, 12, 16, 28]))
    def test_any_canvas(self, digit, canvas):
        img = render_digit(digit, canvas=canvas,
                           rng=np.random.default_rng(0))
        assert img.shape == (canvas, canvas)


class TestLoadSynthDigits:
    def test_shapes_and_classes(self):
        train, test = load_synth_digits(n_train=100, n_test=20, seed=0)
        assert train.x.shape == (100, 1, 8, 8)
        assert test.x.shape == (20, 1, 8, 8)
        assert train.num_classes == 10
        assert set(np.unique(train.y)).issubset(set(range(10)))

    def test_seed_reproducibility(self):
        a, _ = load_synth_digits(n_train=50, n_test=5, seed=3)
        b, _ = load_synth_digits(n_train=50, n_test=5, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)


class TestDataset:
    def test_len_and_subset(self, np_rng):
        ds = Dataset(x=np.arange(20).reshape(10, 2).astype(float),
                     y=np.arange(10), num_classes=10)
        sub = ds.subset(np.array([1, 3]))
        assert len(sub) == 2
        assert sub.y.tolist() == [1, 3]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(4), num_classes=2)

    def test_shards_partition(self):
        ds = Dataset(x=np.zeros((10, 1)), y=np.arange(10), num_classes=10)
        shards = ds.shards(3)
        assert sum(len(s) for s in shards) == 10
        assert sorted(np.concatenate([s.y for s in shards]).tolist()) == list(range(10))

    def test_train_test_split_disjoint(self, np_rng):
        ds = Dataset(x=np.arange(40).reshape(20, 2).astype(float),
                     y=np.arange(20), num_classes=20)
        train, test = train_test_split(ds, 0.25, np_rng)
        assert len(train) == 15 and len(test) == 5
        assert set(train.y) | set(test.y) == set(range(20))
        assert set(train.y) & set(test.y) == set()

    def test_split_fraction_validation(self, np_rng):
        ds = Dataset(x=np.zeros((4, 1)), y=np.zeros(4), num_classes=1)
        with pytest.raises(ValueError):
            train_test_split(ds, 1.5, np_rng)


class TestPreprocess:
    def test_one_hot(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_flatten_images(self, np_rng):
        imgs = np_rng.normal(size=(4, 1, 3, 3))
        flat = flatten_images(imgs)
        assert flat.shape == (4, 9)

    def test_label_mapper_roundtrip(self, np_rng):
        mapper = LabelMapper(10, np_rng)
        labels = np.arange(10)
        np.testing.assert_array_equal(
            mapper.unmap_labels(mapper.map_labels(labels)), labels
        )

    def test_label_mapper_is_permutation(self, np_rng):
        mapper = LabelMapper(10, np_rng)
        assert sorted(mapper.permutation.tolist()) == list(range(10))

    def test_mapper_needs_two_classes(self):
        with pytest.raises(ValueError):
            LabelMapper(1)


class TestClinics:
    def test_shard_shapes(self):
        shards = load_clinics(n_clinics=3, samples_per_clinic=50,
                              n_features=6, seed=0)
        assert len(shards) == 3
        for shard in shards:
            assert shard.x.shape == (50, 6)
            assert set(np.unique(shard.y)).issubset({0, 1})

    def test_classes_separable(self):
        shards = load_clinics(n_clinics=1, samples_per_clinic=400,
                              class_separation=4.0, seed=1)
        ds = shards[0]
        mean_pos = ds.x[ds.y == 1].mean(axis=0)
        mean_neg = ds.x[ds.y == 0].mean(axis=0)
        assert np.linalg.norm(mean_pos - mean_neg) > 2.0

    def test_merge_shards(self):
        shards = load_clinics(n_clinics=2, samples_per_clinic=10, seed=0)
        merged = merge_shards(shards)
        assert len(merged) == 20

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_shards([])
