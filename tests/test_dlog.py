"""Unit tests for the bounded discrete-log solver."""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mathutils.dlog import (
    DENSE_TABLE_CAP,
    DiscreteLogError,
    DlogSolver,
    SolverCache,
)
from repro.mathutils.group import SchnorrGroup


def discrete_log_linear(group: SchnorrGroup, h: int, bound: int) -> int:
    """Exhaustive-scan oracle the BSGS solver is checked against.

    Linear in ``bound``; only for tiny windows.
    """
    if h == 1:
        return 0
    acc_pos = acc_neg = 1
    g_inv = group.inv(group.g)
    for m in range(1, bound + 1):
        acc_pos = group.mul(acc_pos, group.g)
        if acc_pos == h:
            return m
        acc_neg = group.mul(acc_neg, g_inv)
        if acc_neg == h:
            return -m
    raise DiscreteLogError(f"no discrete log within [-{bound}, {bound}]")


class TestDlogSolver:
    def test_solves_zero(self, group):
        solver = DlogSolver(group, bound=100)
        assert solver.solve(1) == 0

    def test_solves_positive_and_negative(self, group):
        solver = DlogSolver(group, bound=1000)
        for m in (1, 42, 999, -1, -999, 1000, -1000):
            assert solver.solve(group.gexp(m)) == m

    def test_out_of_bound_raises(self, group):
        solver = DlogSolver(group, bound=50)
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(51))
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(-51))

    def test_solves_both_signs_of_a_target(self, group):
        """Decryptions from canonical ciphertexts are right up to sign:
        ``h`` and ``p - h`` have the same discrete log, in ring 0 and
        past the baby-step table."""
        solver = DlogSolver(group, bound=2 ** 21)
        assert solver.table_size < solver.bound
        p = group.p
        for m in (0, 1, -1, 1000, -(2 ** 14), 2 ** 21, -(2 ** 21),
                  2 ** 20 + 12345, -(2 ** 20) - 777):
            h = group.gexp(m)
            assert solver.solve(h) == solver.solve(p - h) == m
        ms = [5, -(2 ** 21), 2 ** 19 + 3]
        targets = [group.gexp(m) for m in ms]
        assert solver.solve_many([p - h for h in targets]) == ms

    def test_bound_zero_only_identity(self, group):
        solver = DlogSolver(group, bound=0)
        assert solver.solve(1) == 0
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(1))

    def test_rejects_negative_bound(self, group):
        with pytest.raises(ValueError):
            DlogSolver(group, bound=-1)

    def test_rejects_window_larger_than_group(self, group):
        with pytest.raises(ValueError):
            DlogSolver(group, bound=group.q)

    def test_custom_table_size(self, group):
        solver = DlogSolver(group, bound=500, table_size=10)
        for m in (-500, -3, 0, 77, 500):
            assert solver.solve(group.gexp(m)) == m

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=-4096, max_value=4096))
    def test_property_roundtrip(self, group, m):
        # the group fixture is stateless here, so sharing it across
        # hypothesis examples is safe
        solver = DlogSolver(group, bound=4096)
        assert solver.solve(group.gexp(m)) == m

    def test_agrees_with_linear_scan(self, group):
        solver = DlogSolver(group, bound=64)
        for m in range(-64, 65, 7):
            h = group.gexp(m)
            assert solver.solve(h) == m
            if m != 0:
                assert discrete_log_linear(group, h, 64) == m


class TestSolveMany:
    """solve_many must agree with per-element solve on every input class."""

    def test_dense_fast_path_matches_solve(self, group):
        solver = DlogSolver(group, bound=1000)  # window fits the table
        assert solver.table_size >= 2 * solver.bound + 1
        values = [0, 1, -1, 42, -999, 1000, -1000, 42, 0]
        targets = [group.gexp(v) for v in values]
        assert solver.solve_many(targets) == values
        assert solver.solve_many(targets) == [solver.solve(h)
                                              for h in targets]

    def test_batched_walk_matches_solve(self, group, rng):
        # a small table forces real giant-stepping: the batched path
        solver = DlogSolver(group, bound=4000, table_size=23)
        values = [rng.randrange(-4000, 4001) for _ in range(50)]
        values += [4000, -4000, 0] + values[:10]  # edges + duplicates
        targets = [group.gexp(v) for v in values]
        assert solver.solve_many(targets) == values
        assert solver.solve_many(targets) == [solver.solve(h)
                                              for h in targets]

    def test_empty_batch(self, group):
        assert DlogSolver(group, bound=10).solve_many([]) == []

    @pytest.mark.parametrize("table_size", [None, 7])
    def test_out_of_bound_raises_like_solve(self, group, table_size):
        solver = DlogSolver(group, bound=50, table_size=table_size)
        bad = group.gexp(51)
        with pytest.raises(DiscreteLogError):
            solver.solve(bad)
        with pytest.raises(DiscreteLogError):
            solver.solve_many([bad])
        with pytest.raises(DiscreteLogError):
            # one bad apple fails the whole batch, as m solve() calls would
            solver.solve_many([group.gexp(3), bad, group.gexp(-50)])

    def test_deduplicates_repeated_targets(self, group):
        solver = DlogSolver(group, bound=600, table_size=11)
        target = group.gexp(123)
        assert solver.solve_many([target] * 40 + [group.gexp(-7)]) == \
            [123] * 40 + [-7]


class TestCentredWalk:
    """Baby steps cover [-T/2, T/2); giant steps go outward by +-kT."""

    BOUND = 60

    @pytest.mark.parametrize("table_size", [1, 7, 8, 13, 64, None])
    def test_edges_match_linear_scan(self, group, table_size):
        bound = self.BOUND
        solver = DlogSolver(group, bound=bound, table_size=table_size)
        values = [0, 1, -1, bound, -bound, bound - 1, -(bound - 1)]
        t = solver.table_size
        values += [t // 2, -(t // 2), t // 2 - 1, t, -t, t + 1, -(t + 1)]
        for m in (v for v in values if -bound <= v <= bound):
            h = group.gexp(m)
            assert solver.solve(h) == m
            assert solver.solve_many([h]) == [m]
            assert discrete_log_linear(group, h, bound) == m

    @pytest.mark.parametrize("table_size", [1, 7, 8, 64, None])
    def test_just_outside_the_bound_raises(self, group, table_size):
        solver = DlogSolver(group, bound=self.BOUND, table_size=table_size)
        for m in (self.BOUND + 1, -(self.BOUND + 1)):
            with pytest.raises(DiscreteLogError):
                solver.solve(group.gexp(m))
            with pytest.raises(DiscreteLogError):
                solver.solve_many([group.gexp(0), group.gexp(m)])

    @pytest.mark.parametrize("table_size", [1, 7, 8])
    def test_every_exponent_in_the_window(self, group, table_size):
        solver = DlogSolver(group, bound=30, table_size=table_size)
        values = list(range(-30, 31))
        targets = [group.gexp(v) for v in values]
        assert [solver.solve(h) for h in targets] == values
        assert solver.solve_many(targets) == values

    def test_dense_window_needs_no_giant_steps(self, group):
        solver = DlogSolver(group, bound=self.BOUND)
        assert solver.table_size == 2 * self.BOUND + 1
        assert solver._rings == 0
        for m in (0, self.BOUND, -self.BOUND):
            assert solver.solve(group.gexp(m)) == m

    @pytest.mark.parametrize("table_size", [7, 8, None])
    def test_duplicate_targets(self, group, table_size):
        solver = DlogSolver(group, bound=self.BOUND, table_size=table_size)
        values = [self.BOUND, 0, -self.BOUND, 0, self.BOUND, 5, 5, -33]
        assert solver.solve_many([group.gexp(v) for v in values]) == values

    def test_unreduced_targets(self, group):
        solver = DlogSolver(group, bound=self.BOUND, table_size=7)
        h = group.gexp(-41) + group.p
        assert solver.solve(h) == -41
        assert solver.solve_many([h, h - group.p]) == [-41, -41]

    def test_solve_never_calls_solve_many(self, group, monkeypatch):
        """A traced solve_many counts its targets; solve() routing
        through it would count them twice."""
        def forbidden(self, elements):
            raise AssertionError("solve() went through solve_many")
        monkeypatch.setattr(DlogSolver, "solve_many", forbidden)
        solver = DlogSolver(group, bound=self.BOUND, table_size=7)
        for m in (0, 3, -self.BOUND, self.BOUND):
            assert solver.solve(group.gexp(m)) == m
        with pytest.raises(DiscreteLogError):
            solver.solve(group.gexp(self.BOUND + 1))


class TestSolverCache:
    def test_reuses_solver(self, group):
        cache = SolverCache()
        first = cache.get(group, 100)
        second = cache.get(group, 100)
        assert first is second
        assert len(cache) == 1

    def test_distinct_bounds_distinct_solvers(self, group):
        cache = SolverCache()
        assert cache.get(group, 100) is not cache.get(group, 200)
        assert len(cache) == 2

    def test_clear(self, group):
        cache = SolverCache()
        cache.get(group, 10)
        cache.clear()
        assert len(cache) == 0

    def test_unbounded_by_default(self, group):
        cache = SolverCache()
        for bound in range(1, 101):
            cache.get(group, bound)
        assert len(cache) == 100

    def test_lru_eviction_past_cap(self, group):
        cache = SolverCache(max_entries=3)
        solvers = {b: cache.get(group, b) for b in (10, 20, 30)}
        assert len(cache) == 3
        cache.get(group, 40)  # evicts bound=10, the least recently used
        assert len(cache) == 3
        assert cache.get(group, 20) is solvers[20]  # survived
        assert cache.get(group, 10) is not solvers[10]  # rebuilt

    def test_get_refreshes_recency(self, group):
        cache = SolverCache(max_entries=2)
        first = cache.get(group, 10)
        cache.get(group, 20)
        assert cache.get(group, 10) is first  # touch: 10 is now newest
        cache.get(group, 30)  # must evict 20, not 10
        assert cache.get(group, 10) is first

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            SolverCache(max_entries=0)

    def test_global_cache_is_bounded(self):
        from repro.mathutils.dlog import (
            GLOBAL_SOLVER_CACHE,
            GLOBAL_SOLVER_CACHE_ENTRIES,
        )
        assert GLOBAL_SOLVER_CACHE.max_entries == GLOBAL_SOLVER_CACHE_ENTRIES


class TestSharedBabySteps:
    """Solvers of one group and one table size share one table."""

    def test_two_bounds_share_one_table_and_keep_their_own_range(self, group):
        cache = SolverCache()
        narrow, wide = cache.get(group, 1 << 19), cache.get(group, 1 << 21)
        assert narrow is not wide
        assert narrow.table_size == wide.table_size == DENSE_TABLE_CAP
        assert narrow.baby_steps is wide.baby_steps
        for m in (0, -5, DENSE_TABLE_CAP, (1 << 19), -(1 << 19)):
            assert narrow.solve(group.gexp(m)) == m
            assert wide.solve(group.gexp(m)) == m
        outside = group.gexp((1 << 19) + 1)
        with pytest.raises(DiscreteLogError):
            narrow.solve(outside)
        with pytest.raises(DiscreteLogError):
            narrow.solve_many([group.gexp(3), outside])
        assert wide.solve(outside) == (1 << 19) + 1
        with pytest.raises(DiscreteLogError):
            wide.solve(group.gexp(-(1 << 21) - 1))

    def test_other_table_sizes_build_their_own(self, group):
        cache = SolverCache()
        small, large = cache.get(group, 100), cache.get(group, 1 << 19)
        assert small.table_size == 201
        assert small.baby_steps is not large.baby_steps

    def test_evicting_the_last_solver_frees_the_table(self, group):
        cache = SolverCache(max_entries=2)
        table = weakref.ref(cache.get(group, 1 << 19).baby_steps)
        cache.get(group, 1 << 20)
        cache.get(group, 10)  # evicts 2^19; 2^20 still holds the table
        gc.collect()
        assert table() is not None
        cache.get(group, 20)  # evicts 2^20, the table's last solver
        gc.collect()
        assert table() is None
        assert cache.get(group, 1 << 19).solve(group.gexp(-7)) == -7

    def test_a_table_of_another_size_is_rejected(self, group):
        table = DlogSolver(group, 100).baby_steps
        with pytest.raises(ValueError):
            DlogSolver(group, 1 << 19, baby_steps=table)


def test_an_explicit_empty_solver_cache_is_used(params):
    """A fresh ``SolverCache`` is empty, hence falsy; every site that
    takes one must still use it, not the process-wide cache."""
    from repro.fe.febo import Febo
    from repro.fe.feip import Feip
    from repro.matrix.parallel import InlineExecutor

    cache = SolverCache()
    assert not cache
    feip, febo = Feip(params, solver_cache=cache), Febo(params,
                                                        solver_cache=cache)
    assert feip._solver_cache is cache
    assert febo._solver_cache is cache
    assert InlineExecutor(feip, febo, solver_cache=cache)._solver_cache \
        is cache
    feip.solver_for(50)
    assert len(cache) == 1
