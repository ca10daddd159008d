"""Tests for the utility modules."""

import time

import pytest

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.timer import Stopwatch, time_call


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.01)
        first = sw.elapsed
        with sw:
            time.sleep(0.01)
        assert sw.elapsed > first

    def test_double_start_rejected(self):
        sw = Stopwatch().start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0

    def test_time_call(self):
        seconds, result = time_call(lambda a, b: a + b, 2, b=3)
        assert result == 5
        assert seconds >= 0.0


class TestRng:
    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_spawn_rngs_independent_and_reproducible(self):
        a = spawn_rngs(1, 3)
        b = spawn_rngs(1, 3)
        assert len(a) == 3
        assert [r.random() for r in a] == [r.random() for r in b]
        assert a[0].random() != a[1].random()
