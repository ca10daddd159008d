"""Fast modular exponentiation for the CryptoNN hot path.

Every expensive step of both FE schemes is a modular exponentiation:
``g^r`` / ``h_i^r`` during encryption, ``prod_i ct_i^{y_i}`` during
decryption, ``g^{s_i}`` during setup.  Two classical structures exploit
the reuse patterns of those exponentiations:

* :class:`FixedBaseExp` -- a fixed-base windowed table ("comb") for a
  base that is exponentiated thousands of times (``g``, the public
  ``h_i``).  After a one-time precomputation of ``ceil(bits/w) * 2^w``
  group elements, each exponentiation costs at most ``ceil(bits/w)``
  modular multiplications instead of a full square-and-multiply chain.
* :func:`multiexp` -- simultaneous multi-exponentiation (interleaved
  fixed windows, a generalization of Shamir's trick) for products
  ``prod_i b_i^{e_i}`` over *fresh* bases, sharing one squaring chain
  across all terms.  Signed exponents are handled by splitting the
  product by sign and paying a single modular inversion, which keeps
  small negative exponents small instead of reducing them to full-width
  residues mod the group order.
* :class:`SharedBaseMultiExp` -- the batched form of the same product
  when *many* exponent vectors hit the *same* base tuple, which is
  exactly the shape of FEIP matrix decryption: every row key of ``W x``
  evaluates against the one column ciphertext ``(ct_0, ct_1..ct_eta)``.
  A :class:`RowPlan` reduces and recodes the rows once per key set;
  per column the context builds positive odd-power tables for the
  bases plus a signed comb for ``ct_0``, walks each row's numerator
  and denominator against them and divides all m denominators out with
  one batch inversion -- m rows pay one table build instead of m.

All are pure Python over ``int``; they beat CPython's C ``pow`` only
because they do asymptotically less work, so the window parameters are
chosen from measured crossover points (see
``benchmarks/bench_ablation_fastexp.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.mathutils.modarith import batch_inverse, mod_inverse

#: Exponent bit-width at or below which a plain ``pow`` loop beats the
#: interleaved multi-exponentiation (C pow on a tiny exponent costs less
#: than the Python-level bookkeeping of a shared window walk).
NAIVE_MULTIEXP_BITS = 16

#: Below this modulus size C ``pow`` beats a Python-level comb, so
#: :class:`SharedBaseMultiExp` raises its fixed base with one ``pow``
#: per row instead of building the per-column comb (same policy as
#: ``FIXED_BASE_MIN_BITS`` on :class:`SchnorrGroup`).
SHARED_TABLE_MIN_BITS = 64

#: Minimum row count before the per-column signed comb (the ``ct_0``
#: table) amortizes its build cost over the batch; below it a plain
#: full-width ``pow`` per row is cheaper.  Measured at 256 bits (comb
#: build plus m comb walks against m C ``pow`` calls, one batch
#: inversion on both sides; 2-core VM): 0.73x at 1 row, 1.05x at 2,
#: 1.36x at 3, 1.64x at 4, 2.11x at 8, 3.35x at 32 -- so the comb covers
#: the 4-filter columns of a small CNN, and 2 rows stay on ``pow``
#: where the gain is within noise.
SHARED_FIXED_BASE_MIN_ROWS = 3


def _comb_window(bits: int) -> int:
    """Default comb window width for an exponent of ``bits`` bits.

    Wider windows cost exponentially more precomputation but only
    linearly fewer multiplications per call; these break-evens were
    measured on 256-bit operands.
    """
    if bits >= 192:
        return 8
    if bits >= 96:
        return 7
    return 5


class FixedBaseExp:
    """Precomputed fixed-base exponentiation ``base ** e mod modulus``.

    The table stores ``base ** (d * 2^(i*w))`` for every window index
    ``i`` and digit ``d``; an exponentiation is then one table lookup
    plus one multiplication per non-zero window digit.  Exponents are
    reduced into ``[0, order)`` first, so callers may pass negative or
    oversized exponents exactly as with :meth:`SchnorrGroup.exp`.
    """

    def __init__(self, base: int, modulus: int, order: int,
                 window: int | None = None):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        if order <= 0:
            raise ValueError("order must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        bits = order.bit_length()
        self.window = _comb_window(bits) if window is None else window
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self._mask = (1 << self.window) - 1
        self.num_windows = (bits + self.window - 1) // self.window
        self._tables = self._build_tables()

    def _build_tables(self) -> list[list[int]]:
        modulus = self.modulus
        per_window = 1 << self.window
        tables: list[list[int]] = []
        step = self.base
        for _ in range(self.num_windows):
            row = [1] * per_window
            acc = 1
            for d in range(1, per_window):
                acc = acc * step % modulus
                row[d] = acc
            tables.append(row)
            step = acc * step % modulus  # step ** 2^window
        return tables

    def pow(self, exponent: int) -> int:
        """Return ``base ** exponent mod modulus`` (exponent in Z_order)."""
        e = exponent % self.order
        result = 1
        modulus = self.modulus
        window, mask = self.window, self._mask
        i = 0
        while e:
            d = e & mask
            if d:
                result = result * self._tables[i][d] % modulus
            e >>= window
            i += 1
        return result

    __call__ = pow

    @property
    def table_entries(self) -> int:
        """Total precomputed group elements (memory footprint proxy)."""
        return self.num_windows * (1 << self.window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FixedBaseExp(bits={self.order.bit_length()}, "
                f"window={self.window}, entries={self.table_entries})")


def _multiexp_window(max_bits: int, n_bases: int) -> int:
    """Pick the interleaved window width minimizing total multiplications.

    Cost model per base: ``2^w - 1`` precomputed powers plus one
    multiplication per non-zero window digit (``~ceil(max_bits/w)``),
    against a shared chain of ``max_bits`` squarings that does not
    depend on ``w``.
    """
    best_w, best_cost = 1, None
    for w in range(1, 9):
        cost = n_bases * ((1 << w) - 1 + (max_bits + w - 1) // w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _multiexp_nonneg(pairs: list[tuple[int, int]], modulus: int) -> int:
    """``prod b^e mod modulus`` for non-negative exponents (interleaved)."""
    if not pairs:
        return 1
    max_bits = max(e.bit_length() for _, e in pairs)
    if max_bits == 0:
        return 1
    if max_bits <= NAIVE_MULTIEXP_BITS and len(pairs) < 32:
        result = 1
        for base, e in pairs:
            result = result * pow(base, e, modulus) % modulus
        return result
    w = _multiexp_window(max_bits, len(pairs))
    mask = (1 << w) - 1
    num_windows = (max_bits + w - 1) // w
    # odd/even powers 1..2^w-1 of every base
    tables = []
    for base, _ in pairs:
        row = [1] * (1 << w)
        acc = 1
        for d in range(1, 1 << w):
            acc = acc * base % modulus
            row[d] = acc
        tables.append(row)
    exponents = [e for _, e in pairs]
    acc = 1
    for k in range(num_windows - 1, -1, -1):
        if k != num_windows - 1:
            for _ in range(w):
                acc = acc * acc % modulus
        shift = k * w
        for row, e in zip(tables, exponents):
            d = (e >> shift) & mask
            if d:
                acc = acc * row[d] % modulus
    return acc


def _balanced(e: int, order: int | None) -> int:
    """``e`` reduced into ``(-order/2, order/2]`` (unchanged without order)."""
    if order is not None:
        e %= order
        if e > order // 2:
            e -= order
    return e


def multiexp(bases: Sequence[int], exponents: Sequence[int], modulus: int,
             order: int | None = None) -> int:
    """Return ``prod_i bases[i] ** exponents[i] mod modulus``.

    Exponents may be negative or exceed ``order``; when ``order`` is
    given they are first reduced to the *balanced* representation in
    ``(-order/2, order/2]``, which is only valid when every base lies in
    a subgroup whose order divides ``order`` (always true for Schnorr
    subgroup elements).  A :func:`~repro.mathutils.group.canonical`
    base may be the negation of a subgroup element, so for ciphertext
    bases the result is exact only up to sign.  The negative-exponent
    part is accumulated as a positive product and folded in with one
    modular inversion, so small signed exponents -- the typical
    encoded-weight case -- never pay full-width exponentiations.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    positive: list[tuple[int, int]] = []
    negative: list[tuple[int, int]] = []
    for base, e in zip(bases, exponents):
        e = _balanced(int(e), order)
        if e == 0 or base == 1:
            continue
        if e > 0:
            positive.append((base % modulus, e))
        else:
            negative.append((base % modulus, -e))
    result = _multiexp_nonneg(positive, modulus)
    if negative:
        denom = _multiexp_nonneg(negative, modulus)
        result = result * mod_inverse(denom, modulus) % modulus
    return result


def amortized_comb_window(bits: int, uses: int) -> int:
    """Signed-comb window minimizing build + ``uses`` evaluations.

    :func:`_comb_window` optimizes for a base reused thousands of times
    (``g``, the ``h_i``); a per-column ``ct_0`` table is only reused by
    the m rows of one decryption batch, so the build cost must be
    weighed against the batch size -- small batches want narrow windows.
    Cost model of the signed comb :class:`SharedBaseMultiExp` builds:
    ``ceil((bits + 1) / w)`` windows, each ``2^(w-1)`` table entries to
    build plus one multiplication per use.
    """
    best_w, best_cost = 1, None
    for w in range(1, 11):
        num_windows = (bits + w) // w
        cost = num_windows * ((1 << (w - 1)) + uses)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def _shared_window(max_bits: int, n_bases: int, rows: int) -> int:
    """Odd-power window width for a shared-base batch.

    Cost model: ``2^(w-1)`` precomputed odd powers per base amortized
    over the batch, against roughly ``max_bits / (w + 1)`` non-zero
    sliding-window digits per base per row.
    """
    rows = max(rows, 1)
    best_w, best_cost = 1, None
    for w in range(1, 9):
        build = n_bases * (1 << (w - 1))
        per_row = n_bases * (max_bits / (w + 1) + 1)
        cost = build + rows * per_row
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


#: Op code of a :class:`RowPlan` walk: square the accumulator.  Every
#: other op is an index into the per-column table to multiply in.
_SQUARE = -1


def _walk(ops: list[int], table: list[int], modulus: int) -> int:
    acc = 1
    for op in ops:
        if op < 0:
            acc = acc * acc % modulus
        else:
            acc = acc * table[op] % modulus
    return acc


class RowPlan:
    """Signed exponent rows, reduced and recoded once for many base tuples.

    The exponent half of :class:`SharedBaseMultiExp`: FEIP decrypts every
    column of a secure dot against the same m weight keys, so the keys'
    reduction and recoding is done once per key set, here, and each
    column only builds its tables and walks the plan
    (:meth:`SharedBaseMultiExp.eval_plan`).

    Each row becomes two op lists over the column's table -- a numerator
    for its positive terms and a denominator for its negative ones --
    so the table needs positive powers only, and one batch inversion
    per column divides them out.  Weights are recoded into sliding odd
    digits of ``window`` bits, walked top-down with one squaring per bit.
    A fixed exponent per row (FEIP's ``-sk``) is recoded into signed
    digits of a comb over the fixed base when the batch is large enough
    (:data:`SHARED_FIXED_BASE_MIN_ROWS`); its positive digits join the
    numerator, its negative ones the denominator, after the last
    squaring.  Smaller batches and toy groups raise the fixed base with
    one ``pow`` per row instead (``fixed_pows``).
    """

    def __init__(self, rows: Sequence[Sequence[int]], modulus: int,
                 order: int | None = None,
                 fixed_exponents: Sequence[int] | None = None,
                 rows_hint: int | None = None, window: int | None = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        rows = [[_balanced(int(e), order) for e in row] for row in rows]
        self.n_rows = len(rows)
        self.n_bases = len(rows[0]) if rows else 0
        if any(len(row) != self.n_bases for row in rows):
            raise ValueError("exponent rows must have equal length")
        self.has_fixed = fixed_exponents is not None
        fixed = [_balanced(int(f), order) for f in fixed_exponents or ()]
        if self.has_fixed and len(fixed) != self.n_rows:
            raise ValueError("fixed_exponents must supply one exponent per row")
        uses = rows_hint or self.n_rows
        max_bits = max((abs(e).bit_length() for row in rows for e in row),
                       default=0)
        #: odd-power window width; None when every weight is zero
        self.window = (window or _shared_window(max_bits, self.n_bases, uses)
                       ) if max_bits else None
        fixed_bits = max((abs(f).bit_length() for f in fixed), default=0)
        #: signed-comb window and window count for the fixed base
        self.comb_window: int | None = None
        self.comb_windows = 0
        #: per-row fixed exponents raised with plain ``pow`` instead
        self.fixed_pows: list[int] | None = None
        if fixed_bits and order is not None \
                and modulus.bit_length() >= SHARED_TABLE_MIN_BITS \
                and uses >= SHARED_FIXED_BASE_MIN_ROWS:
            self.comb_window = amortized_comb_window(fixed_bits, uses)
            self.comb_windows = (fixed_bits + self.comb_window) \
                // self.comb_window
        elif fixed_bits:
            self.fixed_pows = fixed
        self.ops = [self._row_ops(row, fixed[i] if self.comb_window else 0)
                    for i, row in enumerate(rows)]

    def _row_ops(self, row: list[int], fixed: int) -> tuple[list, list]:
        """(numerator ops, denominator ops) of one row."""
        num: dict[int, list[int]] = {}
        den: dict[int, list[int]] = {}
        if self.window:
            w = self.window
            mask, half = (1 << w) - 1, 1 << (w - 1)
            for idx, e in enumerate(row):
                events = num if e > 0 else den
                e = abs(e)
                pos = 0
                while e:
                    tz = (e & -e).bit_length() - 1
                    e >>= tz
                    pos += tz
                    # odd digit d < 2^w reads table entry base^d
                    events.setdefault(pos, []).append(
                        idx * half + ((e & mask) >> 1))
                    e >>= w
                    pos += w
        num_tail: list[int] = []
        den_tail: list[int] = []
        if fixed:
            w = self.comb_window
            mask, half = (1 << w) - 1, 1 << (w - 1)
            offset = self.n_bases * (1 << (self.window - 1)) \
                if self.window else 0
            e = abs(fixed)
            k = 0
            while e:
                d = e & mask
                if d > half:
                    d -= 1 << w
                e = (e - d) >> w
                if d:
                    # the fixed base's sign flips a digit's side
                    same_side = (d > 0) == (fixed > 0)
                    (num_tail if same_side else den_tail).append(
                        offset + k * half + abs(d) - 1)
                k += 1
        return _schedule(num, num_tail), _schedule(den, den_tail)


def _schedule(events: dict[int, list[int]], tail: list[int]) -> list[int]:
    """Top-down op list: the hits at each bit, one squaring between bits."""
    ops: list[int] = []
    if events:
        for k in range(max(events), -1, -1):
            ops.extend(events.get(k, ()))
            if k:
                ops.append(_SQUARE)
    ops.extend(tail)
    return ops


class SharedBaseMultiExp:
    """Batched multi-exponentiation over one shared tuple of bases.

    Built for the decryption matrix of a secure dot product: a column
    ciphertext fixes the bases ``(ct_1..ct_eta)`` (plus ``ct_0``), and
    every row key contributes one signed exponent vector.  A
    :class:`RowPlan` holds the recoded rows; this context holds the
    column's tables -- the odd powers ``b, b^3, .., b^(2^w - 1)`` of
    each base and, for the optional ``fixed_base`` (FEIP's ``ct_0``,
    whose exponents ``-sk_f`` are full-width scalars for which the
    small-digit walk is wrong), a signed comb sized by
    :func:`amortized_comb_window` for the batch.  :meth:`eval_plan` walks
    every row against them and divides out all denominators with one
    :func:`~repro.mathutils.modarith.batch_inverse`.

    :meth:`eval_many` recodes its rows on every call; callers that
    evaluate one key set against many columns build the plan once and
    call :meth:`eval_plan`.  Results are exact integers either way, but
    exponents are reduced mod ``order`` as in :func:`multiexp`, so for
    :func:`~repro.mathutils.group.canonical` bases (ciphertext elements)
    they are exact only up to sign.
    """

    def __init__(self, bases: Sequence[int], modulus: int,
                 order: int | None = None, fixed_base: int | None = None,
                 rows_hint: int | None = None, window: int | None = None):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.bases = [b % modulus for b in bases]
        self.modulus = modulus
        self.order = order
        self.rows_hint = rows_hint
        self.fixed_base = fixed_base % modulus if fixed_base is not None \
            else None
        self._forced_window = window
        #: window of the odd-power tables last built (None before)
        self.window: int | None = None
        self._tables: list[int] = []
        self._fixed_table: list[int] | None = None
        self._fixed_shape: tuple[int, int] | None = None

    # -- tables ---------------------------------------------------------------
    def _odd_powers(self, w: int) -> list[int]:
        """``[b, b^3, .., b^(2^w - 1)]`` for every base, concatenated."""
        if self.window != w:
            modulus = self.modulus
            tables: list[int] = []
            for base in self.bases:
                sq = base * base % modulus
                acc = base
                tables.append(acc)
                for _ in range((1 << (w - 1)) - 1):
                    acc = acc * sq % modulus
                    tables.append(acc)
            self.window, self._tables = w, tables
        return self._tables

    def _comb(self, w: int, n_windows: int) -> list[int]:
        """``fixed_base^(d * 2^(w*k))`` for ``d`` in ``1..2^(w-1)``, per window ``k``."""
        if self._fixed_shape != (w, n_windows):
            modulus = self.modulus
            table: list[int] = []
            step = self.fixed_base
            for _ in range(n_windows):
                acc = step
                table.append(acc)
                for _ in range((1 << (w - 1)) - 1):
                    acc = acc * step % modulus
                    table.append(acc)
                step = acc * acc % modulus  # step ** 2^w
            self._fixed_shape, self._fixed_table = (w, n_windows), table
        return self._fixed_table

    # -- evaluation -----------------------------------------------------------
    def eval_plan(self, plan: RowPlan) -> list[int]:
        """Evaluate every row of ``plan`` against this context's bases."""
        if not plan.n_rows:
            return []
        if plan.n_bases != len(self.bases):
            raise ValueError(
                f"row length {plan.n_bases} != base count {len(self.bases)}")
        if plan.has_fixed and self.fixed_base is None:
            raise ValueError("fixed_exponents given without a fixed_base")
        modulus = self.modulus
        table = self._odd_powers(plan.window) if plan.window else []
        if plan.comb_window:
            table = table + self._comb(plan.comb_window, plan.comb_windows)
        nums = [_walk(num_ops, table, modulus) for num_ops, _ in plan.ops]
        dens = [_walk(den_ops, table, modulus) for _, den_ops in plan.ops]
        for i, f in enumerate(plan.fixed_pows or ()):
            if f > 0:
                nums[i] = nums[i] * pow(self.fixed_base, f, modulus) % modulus
            elif f < 0:
                dens[i] = dens[i] * pow(self.fixed_base, -f, modulus) % modulus
        divided = [i for i, d in enumerate(dens) if d != 1]
        if divided:
            inverses = batch_inverse([dens[i] for i in divided], modulus)
            for i, inverse in zip(divided, inverses):
                nums[i] = nums[i] * inverse % modulus
        return nums

    def eval_many(self, rows: Sequence[Sequence[int]],
                  fixed_exponents: Sequence[int] | None = None) -> list[int]:
        """Return ``[prod_j bases[j] ** rows[i][j] mod modulus]`` per row.

        With ``fixed_exponents`` given (one scalar per row), each result
        is additionally multiplied by ``fixed_base ** fixed_exponents[i]``
        -- the ``ct_0^{-sk}`` half of FEIP decryption.  Exponents may be
        signed or exceed ``order`` exactly as with :func:`multiexp`.
        """
        return self.eval_plan(RowPlan(
            rows, self.modulus, order=self.order,
            fixed_exponents=fixed_exponents, rows_hint=self.rows_hint,
            window=self._forced_window))

    def eval(self, exponents: Sequence[int],
             fixed_exponent: int | None = None) -> int:
        """Single-row convenience wrapper over :meth:`eval_many`."""
        fixed = None if fixed_exponent is None else [fixed_exponent]
        return self.eval_many([exponents], fixed_exponents=fixed)[0]
