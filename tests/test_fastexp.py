"""Property tests for the fast-exponentiation subsystem.

``FixedBaseExp`` and ``multiexp`` must agree with plain ``pow`` on every
input class the crypto layers feed them: small, full-width, negative and
``>= q`` exponents.  The pooled path additionally must be bit-identical
to the sequential ``SecureMatrixScheme`` computations.
"""

import random

import numpy as np
import pytest

from repro.fe.feip import Feip
from repro.matrix.parallel import SecureComputePool
from repro.matrix.secure_matrix import (
    SecureMatrixScheme,
    as_int_matrix,
    matrix_bound_dot,
    matrix_bound_elementwise,
)
from repro.mathutils.fastexp import (
    CHAIN_MAX_ROWS,
    FixedBaseExp,
    RowPlan,
    SharedBaseMultiExp,
    amortized_comb_window,
    multiexp,
)
from repro.mathutils.group import GroupParams, SchnorrGroup
from repro.mathutils.modarith import batch_inverse, mod_inverse


def reference_product(bases, exponents, p, q):
    result = 1
    for base, e in zip(bases, exponents):
        result = result * pow(base, e % q, p) % p
    return result


def shared_eval(params, bases, rows, fixed_base=None, fixed_exponents=None):
    """Evaluate ``rows`` the way FEIP decryption does: recode them once
    into a :class:`RowPlan`, then walk it against the bases."""
    plan = RowPlan(rows, params.q, fixed_exponents=fixed_exponents)
    context = SharedBaseMultiExp(bases, params.p, fixed_base=fixed_base)
    return context.eval_plan(plan)


class TestFixedBaseExp:
    @pytest.mark.parametrize("bits", [32, 64, 128, 256])
    def test_agrees_with_pow(self, bits):
        """Window widths 5, 5, 7 and 8, one per size."""
        params = GroupParams.predefined(bits)
        rng = random.Random(bits)
        table = FixedBaseExp(params.g, params.p, params.q)
        exponents = [0, 1, 2, params.q - 1, params.q, params.q + 1,
                     -1, -params.q, 2 * params.q + 3]
        exponents += [rng.randrange(-3 * params.q, 3 * params.q)
                      for _ in range(40)]
        for e in exponents:
            assert table.pow(e) == pow(params.g, e % params.q, params.p), e

    def test_arbitrary_base(self, params, group, rng):
        base = group.random_element()
        table = FixedBaseExp(base, params.p, params.q)
        for _ in range(25):
            e = rng.randrange(-2 * params.q, 2 * params.q)
            assert table.pow(e) == pow(base, e % params.q, params.p)

    def test_group_cache_reuses_tables(self, params):
        group = SchnorrGroup(params)
        base = group.random_element()
        assert group.fixed_base(base) is group.fixed_base(base)

    def test_exp_cached_budget_falls_back_to_pow(self, monkeypatch, rng):
        """Past the memory budget new bases must compute correctly via
        plain pow instead of building (or evicting) tables."""
        import repro.mathutils.group as group_mod
        p = GroupParams.predefined(64)
        group = SchnorrGroup(p, rng=rng)
        first, second = group.random_element(), group.random_element()
        e = rng.randrange(p.q)
        assert group.exp_cached(first, e) == pow(first, e, p.p)  # cached
        tables_before = len(group._fixed_bases)
        monkeypatch.setattr(group_mod, "FIXED_BASE_CACHE_ENTRIES", 1)
        assert group.exp_cached(second, e) == pow(second, e, p.p)  # pow path
        assert len(group._fixed_bases) == tables_before  # no table built
        # already-cached bases keep using their tables
        assert group.exp_cached(first, e) == pow(first, e, p.p)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_gexp_walks_both_combs_at_every_size(self, bits, rng):
        """A toy group takes the same path as a large one: both halves
        of the balanced exponent walk a comb, ``g``'s or ``g^{-1}``'s."""
        p = GroupParams.predefined(bits)
        group = SchnorrGroup(p)
        for e in [1, -1] + [rng.randrange(-2 * p.q, 2 * p.q)
                            for _ in range(20)]:
            assert group.gexp(e) == pow(p.g, e % p.q, p.p)
        assert set(group._fixed_bases) == {p.g, pow(p.g, -1, p.p)}

    def test_rejects_bad_parameters(self, params):
        with pytest.raises(ValueError):
            FixedBaseExp(params.g, 1, params.q)
        with pytest.raises(ValueError):
            FixedBaseExp(params.g, params.p, 0)


class TestMultiexp:
    @pytest.mark.parametrize("bits", [32, 64, 128])
    @pytest.mark.parametrize("length", [1, 2, 7, 40])
    def test_signed_small_exponents(self, bits, length):
        params = GroupParams.predefined(bits)
        group = SchnorrGroup(params, rng=random.Random(length))
        rng = random.Random(bits * 1000 + length)
        bases = [group.random_element() for _ in range(length)]
        exponents = [rng.randrange(-500, 501) for _ in range(length)]
        assert multiexp(bases, exponents, params.p, order=params.q) == \
            reference_product(bases, exponents, params.p, params.q)

    @pytest.mark.parametrize("length", [1, 3, 12])
    def test_full_width_exponents(self, params, group, rng, length):
        bases = [group.random_element() for _ in range(length)]
        exponents = [rng.randrange(-2 * params.q, 2 * params.q)
                     for _ in range(length)]
        assert multiexp(bases, exponents, params.p, order=params.q) == \
            reference_product(bases, exponents, params.p, params.q)

    def test_mixed_magnitudes_above_naive_threshold(self, params, group, rng):
        """Exercise the interleaved-window path (>16-bit exponents)."""
        bases = [group.random_element() for _ in range(6)]
        exponents = [3, -7, rng.randrange(1 << 20), -(1 << 19),
                     params.q - 2, 0]
        assert multiexp(bases, exponents, params.p, order=params.q) == \
            reference_product(bases, exponents, params.p, params.q)

    def test_empty_and_zero(self, params, group):
        assert multiexp([], [], params.p, order=params.q) == 1
        bases = [group.random_element(), group.random_element()]
        assert multiexp(bases, [0, 0], params.p, order=params.q) == 1

    def test_without_order_uses_raw_exponents(self, params, group):
        base = group.random_element()
        assert multiexp([base], [10], params.p) == pow(base, 10, params.p)

    def test_length_mismatch(self, params, group):
        with pytest.raises(ValueError):
            multiexp([group.random_element()], [1, 2], params.p)

    def test_group_wrapper(self, params, group, rng):
        bases = [group.random_element() for _ in range(5)]
        exponents = [rng.randrange(-300, 300) for _ in range(5)]
        assert group.multiexp(bases, exponents) == \
            reference_product(bases, exponents, params.p, params.q)


class TestSharedBaseMultiExp:
    """A RowPlan walked by eval_plan must equal per-row multiexp must
    equal naive pow, at every group size."""

    @pytest.mark.parametrize("bits", [32, 64, 128])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (12, 6), (2, 40)])
    def test_matches_per_row_multiexp_and_pow(self, bits, shape):
        params = GroupParams.predefined(bits)
        group = SchnorrGroup(params, rng=random.Random(bits))
        rng = random.Random(bits * 100 + shape[0])
        m, eta = shape
        bases = [group.random_element() for _ in range(eta)]
        rows = [[rng.randrange(-500, 501) for _ in range(eta)]
                for _ in range(m)]
        results = shared_eval(params, bases, rows)
        for row, got in zip(rows, results):
            assert got == multiexp(bases, row, params.p, order=params.q)
            assert got == reference_product(bases, row, params.p, params.q)

    def test_windows_follow_weight_magnitude(self, params, group):
        """Wider weights recode to wider odd-power windows; every window
        walks to the same products."""
        bases = [group.random_element() for _ in range(5)]
        windows = set()
        for magnitude in (1, 3, 300, 1 << 20):
            rng = random.Random(magnitude)
            rows = [[rng.randint(-magnitude, magnitude) for _ in range(5)]
                    for _ in range(6)]
            windows.add(RowPlan(rows, params.q).window)
            for row, got in zip(rows, shared_eval(params, bases, rows)):
                assert got == reference_product(bases, row, params.p,
                                                params.q)
        assert len(windows) == 4

    def test_full_width_and_oversized_exponents(self, params, group, rng):
        bases = [group.random_element() for _ in range(4)]
        rows = [
            [rng.randrange(-2 * params.q, 2 * params.q) for _ in range(4)]
            for _ in range(5)
        ]
        for row, got in zip(rows, shared_eval(params, bases, rows)):
            assert got == reference_product(bases, row, params.p, params.q)

    def test_zero_rows_and_zero_exponents(self, params, group):
        bases = [group.random_element() for _ in range(3)]
        assert shared_eval(params, bases, []) == []
        assert shared_eval(params, bases, [[0, 0, 0]]) == [1]
        assert shared_eval(params, bases, [[0, 5, 0]]) \
            == [pow(bases[1], 5, params.p)]

    @pytest.mark.parametrize("m", [3, CHAIN_MAX_ROWS + 2])
    def test_fixed_base_combines_per_row(self, params, group, rng, m):
        """ct0-style fixed base: full-width exponent folded per row, on
        the chain (few rows) and on the comb (many)."""
        eta = 3
        bases = [group.random_element() for _ in range(eta)]
        fixed = group.random_element()
        rows = [[rng.randrange(-200, 201) for _ in range(eta)]
                for _ in range(m)]
        fixed_exps = [rng.randrange(-params.q, params.q) for _ in range(m)]
        results = shared_eval(params, bases, rows, fixed_base=fixed,
                              fixed_exponents=fixed_exps)
        for row, fe, got in zip(rows, fixed_exps, results):
            expected = reference_product(bases, row, params.p, params.q)
            expected = expected * pow(fixed, fe % params.q, params.p) \
                % params.p
            assert got == expected

    @pytest.mark.parametrize("bits", [32, 64])
    def test_fixed_base_mode_follows_row_count(self, bits, rng):
        """>= CHAIN_MAX_ROWS rows build the amortized comb, fewer walk
        the chain, whatever the group size; results must not depend on
        which mode ran."""
        params = GroupParams.predefined(bits)
        group = SchnorrGroup(params, rng=rng)
        fixed = group.random_element()
        for m in (2, CHAIN_MAX_ROWS):
            exps = [rng.randrange(params.q) for _ in range(m)]
            plan = RowPlan([[] for _ in range(m)], params.q,
                           fixed_exponents=exps)
            context = SharedBaseMultiExp([], params.p, fixed_base=fixed)
            assert context.eval_plan(plan) \
                == [pow(fixed, e, params.p) for e in exps]
            comb = m >= CHAIN_MAX_ROWS
            assert (plan.comb_window is not None) == comb
            assert (plan.chain_ops is not None) == (not comb)
            assert (context._fixed_table is not None) == comb

    def test_errors(self, params, group):
        bases = [group.random_element() for _ in range(2)]
        context = SharedBaseMultiExp(bases, params.p)
        with pytest.raises(ValueError):
            context.eval_plan(RowPlan([[1, 2, 3]], params.q))  # row length
        with pytest.raises(ValueError):  # no fixed base
            context.eval_plan(RowPlan([[1, 2]], params.q,
                                      fixed_exponents=[3]))
        with pytest.raises(ValueError):  # one fixed exponent per row
            RowPlan([[1, 2], [3, 4]], params.q, fixed_exponents=[1])
        with pytest.raises(ValueError):
            RowPlan([[1, 2], [3]], params.q)  # ragged rows
        with pytest.raises(ValueError):
            SharedBaseMultiExp(bases, 1)


class TestAmortizedCombWindow:
    def test_monotone_in_uses(self):
        """More uses justify wider windows (more precomputation)."""
        widths = [amortized_comb_window(256, uses)
                  for uses in (1, 8, 64, 4096)]
        assert widths == sorted(widths)
        assert 1 <= widths[0] <= widths[-1] <= 10


class TestBatchInverse:
    def test_matches_mod_inverse(self, params, group, rng):
        values = [group.random_element() for _ in range(17)]
        assert batch_inverse(values, params.p) == \
            [mod_inverse(v, params.p) for v in values]

    def test_empty(self, params):
        assert batch_inverse([], params.p) == []

    def test_non_invertible_raises(self, params):
        with pytest.raises(ValueError):
            batch_inverse([1, params.p], params.p)


class TestFeipUsesFastExp:
    def test_negative_weights_roundtrip(self, params, rng, solver_cache):
        """decrypt_raw's multiexp must handle signed weight vectors."""
        feip = Feip(params, rng=rng, solver_cache=solver_cache)
        mpk, msk = feip.setup(6)
        x = [rng.randrange(-40, 41) for _ in range(6)]
        y = [rng.randrange(-40, 41) for _ in range(6)]
        key = feip.key_derive(msk, y)
        ct = feip.encrypt(mpk, x)
        expected = sum(a * b for a, b in zip(x, y))
        assert feip.decrypt(mpk, ct, key, bound=6 * 40 * 40 + 1) == expected


class TestAsIntMatrix:
    def test_vectorized_matches_semantics(self):
        out = as_int_matrix([[1.0, 2], [np.float64(3.5), 4]])
        assert out.dtype == object
        assert out.tolist() == [[1, 2], [3, 4]]
        assert all(type(v) is int for v in out.ravel())

    def test_empty_rows(self):
        out = as_int_matrix(np.empty((0, 3), dtype=object))
        assert out.shape == (0, 3)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            as_int_matrix([1, 2, 3])


class TestPoolMatchesSequential:
    def test_pool_reuse_identical_results(self, params, rng, solver_cache):
        """One persistent pool, many calls: results must equal the
        sequential scheme path, and no lane may be respawned."""
        scheme = SecureMatrixScheme(params, rng=rng, solver_cache=solver_cache)
        msk_ip, msk_bo = scheme.setup(column_length=3)
        x = np.array([[rng.randrange(-9, 10) for _ in range(5)]
                      for _ in range(3)], dtype=object)
        y = np.array([[rng.randrange(-9, 10) for _ in range(3)]
                      for _ in range(2)], dtype=object)
        enc = scheme.pre_process_encryption(x)
        dot_keys = scheme.derive_dot_keys(msk_ip, y)
        ew_keys = scheme.derive_elementwise_keys(msk_bo, "+", x,
                                                 enc.commitments())
        dot_bound = matrix_bound_dot(9, 9, 3)
        ew_bound = matrix_bound_elementwise("+", 9, 9)
        serial_dot = scheme.secure_dot(enc, dot_keys, dot_bound)
        serial_ew = scheme.secure_elementwise(enc, ew_keys, ew_bound)
        cells = [(ew_keys[i][j], ct)
                 for i, row in enumerate(enc.require_febo())
                 for j, ct in enumerate(row)]
        with SecureComputePool(workers=2) as pool:
            for _ in range(2):  # reuse across repeated calls
                np.testing.assert_array_equal(
                    pool.secure_dot(params, scheme.feip_mpk,
                                    enc.require_feip(), dot_keys, dot_bound),
                    serial_dot)
                np.testing.assert_array_equal(
                    pool.secure_elementwise(params, scheme.febo_mpk, cells,
                                            enc.shape, ew_bound),
                    serial_ew)
            assert pool.executors_created == pool.workers
            assert pool.dispatches == 4
