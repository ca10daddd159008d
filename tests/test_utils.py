"""Tests for the utility modules."""

import time

import pytest

from repro.utils.timer import Stopwatch


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

    def test_fresh_stopwatch_reads_zero(self):
        assert Stopwatch().elapsed == 0.0

    def test_stop_returns_the_running_total(self):
        sw = Stopwatch().start()
        first = sw.stop()
        assert first == sw.elapsed
        second = sw.start().stop()
        assert second == sw.elapsed >= first

    def test_exception_inside_block_still_stops(self):
        sw = Stopwatch()
        with pytest.raises(KeyError):
            with sw:
                raise KeyError("boom")
        assert sw.elapsed > 0.0
        sw.start().stop()  # not left running
