"""How fast the machine runs right now, for speed-normalised timings.

The machine the benchmark was sized on (a 2-core VM on a shared host)
has slow spells: for seconds to minutes every computation runs 1.1-1.6x
slower because of other tenants.  Raw wall-clock medians of ten runs
then spread by 10-25% and more, however the runs are built.  So a job
times a fixed reference computation -- 256-bit modular exponentiations,
the arithmetic that dominates every workload, but none of the
repository's code -- between its phases, and divides each phase's
wall-clock time by the slowdown the reference saw around it.  A change
to the repository cannot move the reference; a slow spell moves both,
and cancels.

The two CPUs slow down partly independently.  A job that computes on
both (the pooled workload) times the reference on both at once, in a
helper process per extra CPU, and takes the larger slowdown: a phase
split across pool workers waits for the slower one.

Reported seconds are therefore seconds at :data:`REFERENCE_RATE`, the
reference's rate on an unloaded CPU of that machine; on another machine
they keep their ratios but not their scale.

Run as a script, this module is such a helper: it times the reference
once per line it reads and writes back the slowdown.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: 2**255 - 19: any 256-bit odd modulus would do.
REFERENCE_MODULUS = (1 << 255) - 19
#: Exponentiations per sample (about 50 ms unloaded).
REFERENCE_OPS = 400
#: Exponentiations per second of an unloaded CPU of the 2-core machine
#: the benchmark was sized on.  It only sets the scale of reported times.
REFERENCE_RATE = 8500.0


def machine_slowdown() -> float:
    """Current slowdown against an unloaded CPU (1.0 = unloaded).

    Call it only while no other work of the job runs, or the reference
    would time that work too.
    """
    start = time.perf_counter()
    x = 3
    for i in range(REFERENCE_OPS):
        x = pow(x, REFERENCE_MODULUS - 2 - i, REFERENCE_MODULUS)
    return (time.perf_counter() - start) * REFERENCE_RATE / REFERENCE_OPS


class SpeedSamples:
    """Slowdown samples of one job, and the wall time they cost.

    Args:
        cpus: how many CPUs the job computes on; each sample times the
            reference on that many at once.  Helper processes start at
            the first sample, so their start-up is part of ``spent_s``;
            :meth:`close` stops them.
    """

    def __init__(self, cpus: int = 1):
        self.cpus = cpus
        self.values: list[float] = []
        self.spent_s = 0.0
        self._helpers: list[subprocess.Popen] = []

    def take(self) -> None:
        start = time.perf_counter()
        if len(self._helpers) < self.cpus - 1:
            self._start_helpers()
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        slowdowns = [machine_slowdown()]
        slowdowns += [float(self._reply(helper)) for helper in self._helpers]
        self.values.append(max(slowdowns))
        self.spent_s += time.perf_counter() - start

    def around(self, *indices: int) -> float:
        """Mean slowdown of the given samples."""
        return sum(self.values[i] for i in indices) / len(indices)

    def close(self) -> None:
        # killed, not sent end-of-input: pool workers forked after a
        # helper started hold its input pipe open too
        for helper in self._helpers:
            helper.kill()
            helper.wait()
            helper.stdin.close()
            helper.stdout.close()
        self._helpers = []

    def _start_helpers(self) -> None:
        for _ in range(self.cpus - 1 - len(self._helpers)):
            self._helpers.append(subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True))
        for helper in self._helpers:
            # each helper says "ready" once its interpreter is up
            self._reply(helper)

    @staticmethod
    def _reply(helper: subprocess.Popen) -> str:
        line = helper.stdout.readline()
        if not line:
            raise RuntimeError(f"speed helper exited with code "
                               f"{helper.wait()}")
        return line


if __name__ == "__main__":
    print("ready", flush=True)
    for _ in sys.stdin:
        print(machine_slowdown(), flush=True)
