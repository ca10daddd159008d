"""Shared benchmark infrastructure.

Every figure/table of the paper's evaluation section has a bench module
here (``bench_<figure or table>_*.py``).  Default sizes are scaled down so
``pytest benchmarks/ --benchmark-only`` completes in minutes on a laptop;
set ``REPRO_FULL=1`` to run at paper scale (element counts in the
thousands, 2 full epochs -- expect hours, as the paper's own Table III
did).

Reports are printed and also written to ``benchmarks/results/*.txt`` so
the series survive pytest's output capture.
"""

from __future__ import annotations

import os
import pathlib
import random

import numpy as np
import pytest

from repro.mathutils.group import GroupParams

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FULL_SCALE = bool(int(os.environ.get("REPRO_FULL", "0")))

#: Group size used by the secure-computation benches.  The paper used a
#: 256-bit security parameter; the scaled default uses 64-bit so the
#: shape experiments finish quickly.  REPRO_FULL switches to 256.
BENCH_BITS = 256 if FULL_SCALE else 64

#: Element counts for Figures 3/4 (paper: 2k..10k).
ELEMENTWISE_COUNTS = [2000, 4000, 6000, 8000, 10000] if FULL_SCALE else \
    [200, 400, 600, 800, 1000]

#: Dot-product counts for Figure 5 (paper: 2k..10k inner products).
DOT_COUNTS = [2000, 4000, 6000, 8000, 10000] if FULL_SCALE else \
    [100, 200, 300, 400, 500]

#: Value ranges appearing in the Figure 3/4 legends.
VALUE_RANGES = [(-10, 10), (-100, 100), (-1000, 1000)]

#: (vector length, value range) combos from the Figure 5 legend.
DOT_CONFIGS = [(10, (1, 10)), (10, (1, 100)), (100, (1, 10)), (100, (1, 100))]


@pytest.fixture(scope="session")
def bench_params() -> GroupParams:
    return GroupParams.predefined(BENCH_BITS)


@pytest.fixture()
def bench_rng() -> random.Random:
    return random.Random(20190419)


def random_int_matrix(rng: random.Random, rows: int, cols: int,
                      value_range: tuple[int, int]) -> np.ndarray:
    lo, hi = value_range
    return np.array(
        [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)],
        dtype=object,
    )


def write_report(name: str, lines: list[str]) -> None:
    """Print a report block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n===== {name} =====\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def series_table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(header[c]), *(len(r[c]) for r in rows))
              for c in range(len(header))]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    return [fmt(header), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows]
