"""Bounded discrete-logarithm recovery.

Decryption in both FEIP and FEBO yields ``g ** m mod p`` and must recover
the exponent ``m``.  This is feasible exactly because the plaintext result
of the permitted function is small and bounded -- the paper points at the
baby-step giant-step (BSGS) algorithm [26].  We implement BSGS over a
*signed* interval ``[-bound, bound]``, centred on zero, with a reusable
baby-step table so that the (dominant) table construction is amortized
across the thousands of decryptions a single training iteration
performs.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from collections.abc import Sequence

from repro.mathutils.group import SchnorrGroup
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.utils.forksafe import renew_lock_after_fork


class DiscreteLogError(ValueError):
    """Raised when no exponent within the search bound matches.

    In practice this signals either a plaintext that overflowed the
    declared bound (fixed-point scale too large) or a tampered/corrupt
    ciphertext, so it doubles as an integrity check.
    """


#: Default ceiling on the baby-step table.  The classic ``sqrt(window)``
#: table balances build time against a *single* query, but the solver
#: cache amortizes one build over thousands of queries, so a denser
#: table (fewer giant steps per query, O(1) solve once the whole window
#: fits) is the right trade until memory becomes the constraint.
DENSE_TABLE_CAP = 1 << 15


def table_size_for(bound: int) -> int:
    """Baby steps a :class:`DlogSolver` for ``[-bound, bound]`` keeps by
    default: the whole window when it fits under
    :data:`DENSE_TABLE_CAP`, else the larger of the cap and the classic
    ``ceil(sqrt(window))`` balance."""
    window = 2 * bound + 1
    classic = math.isqrt(window - 1) + 1
    return min(window, max(classic, DENSE_TABLE_CAP))


class BabySteps(dict):
    """A solver's baby-step table, canonical ``g^j`` -> ``j``.

    A ``dict`` subclass only so that :class:`SolverCache` can hold it
    weakly: it lives exactly as long as some solver uses it.
    """

    __slots__ = ("__weakref__",)


class DlogSolver:
    """Baby-step giant-step solver for ``g ** m = h (mod p)``, ``|m| <= bound``.

    The solver precomputes ``table_size`` (T) baby steps ``g^j`` once,
    for ``j`` in ``[-T/2, T/2)``, and reuses them for every query.  A
    query looks its target up directly -- ring 0, the exponents nearest
    zero -- and then walks outward one ring at a time: ring ``k`` tries
    ``h * g^{-kT}`` and ``h * g^{kT}``, i.e. the exponents ``kT + j`` and
    ``-kT + j``.  Inner products of encoded features and weights cluster
    around zero, so most queries end at ring 0 after one dict lookup; the
    worst case, ``|m|`` near ``bound``, costs about ``2 * bound / T``
    multiplications.  ``table_size`` defaults to the full window when
    that fits under :data:`DENSE_TABLE_CAP` (every query is then one
    lookup), else to the larger of the cap and the classic
    ``ceil(sqrt(window))`` balance (:func:`table_size_for`).

    The table depends only on ``p``, ``g`` and T -- the bound sets only
    the rings walked and the exponents accepted -- so solvers of one
    group and one table size may share it: pass another solver's
    ``baby_steps`` (as :class:`SolverCache` does).  Each solver still
    rejects every exponent outside its own bound.

    Decryption results are right only up to sign (ciphertexts travel in
    :func:`~repro.mathutils.group.canonical` form), so the table is keyed
    by canonical value, and each target and each giant step is looked up
    by its canonical value: ``h`` and ``p - h`` solve to the same ``m``.
    The table is shorter than ``q``, so its steps are distinct subgroup
    elements, and -1 is outside the subgroup, so no two share a key.
    """

    def __init__(self, group: SchnorrGroup, bound: int,
                 table_size: int | None = None,
                 baby_steps: BabySteps | None = None):
        if bound < 0:
            raise ValueError("bound must be non-negative")
        if 2 * bound + 1 >= group.q:
            raise ValueError("search window exceeds the group order")
        self.group = group
        self.bound = bound
        if table_size is None:
            table_size = table_size_for(bound)
        self.table_size = max(1, table_size)
        self._low = -(self.table_size // 2)
        if baby_steps is not None and len(baby_steps) != self.table_size:
            raise ValueError(f"baby-step table holds {len(baby_steps)} "
                             f"steps, not {self.table_size}")
        #: the table of ``g^j``, ``j`` in ``[-T/2, T/2)``; shareable
        self.baby_steps = baby_steps if baby_steps is not None \
            else self._build_table()
        # ring k > 0 reaches h * g^{-kT} (exponents above the table) and
        # h * g^{kT} (below it); enough rings to cover [-bound, bound].
        # These and the table's first element are the solver's only
        # powers of g, so plain pow: a process that only decrypts never
        # builds the generator's fixed-base combs for three exponents.
        self._step_up = group.exp(group.g, -self.table_size)
        self._step_down = group.exp(group.g, self.table_size)
        high = self._low + self.table_size - 1
        self._rings = max(0, -(-(bound - high) // self.table_size))

    def _build_table(self) -> BabySteps:
        table = BabySteps()
        element = self.group.exp(self.group.g, self._low)
        g, p = self.group.g, self.group.p
        half = p >> 1
        # the keys are distinct (class docstring), so no assignment
        # overwrites a step
        for j in range(self._low, self._low + self.table_size):
            table[element if element <= half else p - element] = j
            element = element * g % p
        return table

    def _canonical_targets(self, targets: Sequence[int]) -> list[int]:
        p = self.group.p
        half = p >> 1
        residues = (int(t) % p for t in targets)
        return [h if h <= half else p - h for h in residues]

    def _walk(self, targets: Sequence[int]) -> dict[int, int]:
        """Exponents of the distinct canonical ``targets`` that lie in
        the window.

        Equal targets share one walk (a decryption column repeats values
        whenever two rows agree), and all still-unsolved targets advance
        ring by ring together.  Targets missing from the result have no
        discrete log in ``[-bound, bound]``.
        """
        baby = self.baby_steps
        bound, table_size, p = self.bound, self.table_size, self.group.p
        half = p >> 1
        solved: dict[int, int] = {}
        pending: dict[int, tuple[int, int]] = {}
        for h in targets:
            if h in solved or h in pending:
                continue
            j = baby.get(h)
            if j is not None and -bound <= j <= bound:
                solved[h] = j
            else:
                pending[h] = (h, h)
        step_up, step_down = self._step_up, self._step_down
        for ring in range(1, self._rings + 1):
            if not pending:
                break
            shift = ring * table_size
            still: dict[int, tuple[int, int]] = {}
            for h, (above, below) in pending.items():
                above = above * step_up % p
                j = baby.get(above if above <= half else p - above)
                if j is not None and j + shift <= bound:
                    solved[h] = j + shift
                    continue
                below = below * step_down % p
                j = baby.get(below if below <= half else p - below)
                if j is not None and j - shift >= -bound:
                    solved[h] = j - shift
                    continue
                still[h] = (above, below)
            pending = still
        return solved

    def solve(self, h: int) -> int:
        """Return the signed exponent ``m`` with ``g^m`` equal to ``h``
        or ``p - h``.

        Raises:
            DiscreteLogError: when no exponent in ``[-bound, bound]`` works.
        """
        (h,) = self._canonical_targets((h,))
        solved = self._walk((h,))
        if h not in solved:
            raise DiscreteLogError(
                f"no discrete log within [-{self.bound}, {self.bound}]"
            )
        return solved[h]

    def solve_many(self, elements: Sequence[int]) -> list[int]:
        """Solve a whole batch of targets, sharing one outward walk.

        Raises:
            DiscreteLogError: when any element has no exponent in
                ``[-bound, bound]`` -- same contract as :meth:`solve`.
        """
        elements = self._canonical_targets(elements)
        solved = self._walk(elements)
        missing = {h for h in elements if h not in solved}
        if missing:
            raise DiscreteLogError(
                f"{len(missing)} of {len(set(elements))} distinct targets "
                f"have no discrete log within [-{self.bound}, {self.bound}]"
            )
        return [solved[h] for h in elements]


#: Entry cap of the process-wide :data:`GLOBAL_SOLVER_CACHE`.  Each dense
#: solver can pin up to :data:`DENSE_TABLE_CAP` group elements, so a
#: long-lived service meeting many distinct bounds (every new tenant or
#: layer shape introduces one) would otherwise grow without limit --
#: the same reason ``FIXED_BASE_CACHE_ENTRIES`` bounds the comb tables.
#: Unlike the comb budget (which stops building), stale *solvers* are
#: safe to LRU-evict: a rebuilt baby-step table is slow, not wrong.
GLOBAL_SOLVER_CACHE_ENTRIES = 64


class SolverCache:
    """Per-(group, bound) cache of :class:`DlogSolver` instances.

    Building the baby-step table is the expensive part of decryption;
    training touches the same handful of bounds over and over, so the
    secure-computation layer routes all dlog queries through one of these.
    Solvers of one group and one table size share one table (a training
    job's dot and loss bounds all take :data:`DENSE_TABLE_CAP` steps),
    which the cache holds only weakly: a table lives while one of its
    solvers does, so evicting the last of them frees it.

    ``max_entries`` bounds the cache with least-recently-used eviction;
    the default (None) keeps it unbounded, which is what in-process
    experiments with a handful of bounds want.

    The map and the ``hits``/``builds``/``evictions`` counters are
    guarded by one lock: :data:`GLOBAL_SOLVER_CACHE` is shared
    process-wide (every decrypting thread routes through it) and the
    metrics registry scrapes the counters from an arbitrary thread, so
    both the LRU bookkeeping and the scrape need a consistent view --
    the same treatment ``pool.stats`` and the engine stats got in PR 7.
    Table *construction* happens under the lock too, which also stops
    two threads racing to build the same expensive baby-step table.  A
    forked child starts with a fresh lock
    (:func:`~repro.utils.forksafe.renew_lock_after_fork`): a pool
    worker takes it to build its solvers.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._solvers: OrderedDict[tuple[int, int, int], DlogSolver] = \
            OrderedDict()
        #: (p, g, table size) -> the baby steps its solvers share
        self._tables: weakref.WeakValueDictionary = \
            weakref.WeakValueDictionary()
        renew_lock_after_fork(self)

    def get(self, group: SchnorrGroup, bound: int) -> DlogSolver:
        key = (group.p, group.g, bound)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is None:
                self.builds += 1
                shared = (group.p, group.g, table_size_for(bound))
                solver = DlogSolver(group, bound,
                                    baby_steps=self._tables.get(shared))
                self._tables[shared] = solver.baby_steps
                self._solvers[key] = solver
                if self.max_entries is not None:
                    while len(self._solvers) > self.max_entries:
                        self._solvers.popitem(last=False)
                        self.evictions += 1
            else:
                self.hits += 1
                self._solvers.move_to_end(key)
            return solver

    def clear(self) -> None:
        with self._lock:
            self._solvers.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._solvers)

    def stats(self) -> dict[str, int]:
        """Consistent counter snapshot (one lock acquisition)."""
        with self._lock:
            return {
                "entries": len(self._solvers),
                "hits": self.hits,
                "builds": self.builds,
                "evictions": self.evictions,
            }


#: Process-wide default cache.  Library code accepts an explicit cache for
#: isolation (tests) but falls back to this shared one; it is bounded so
#: long-lived services cannot accumulate dlog tables indefinitely.
GLOBAL_SOLVER_CACHE = SolverCache(max_entries=GLOBAL_SOLVER_CACHE_ENTRIES)


def _collect_global_solver_cache() -> dict[str, int]:
    stats = GLOBAL_SOLVER_CACHE.stats()
    return {
        "repro_dlog_solver_cache_entries": stats["entries"],
        "repro_dlog_solver_cache_hits_total": stats["hits"],
        "repro_dlog_solver_cache_builds_total": stats["builds"],
        "repro_dlog_solver_cache_evictions_total": stats["evictions"],
    }


GLOBAL_REGISTRY.register_collector(
    "dlog.global_solver_cache", _collect_global_solver_cache)
