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
  bases, walks each row's numerator and denominator against them and
  divides all m denominators out with one batch inversion -- m rows
  pay one table build instead of m.  The full-width exponents of the
  fixed base ``ct_0`` (FEIP's ``-sk``) take one of two modes, picked by
  the row count alone (:data:`CHAIN_MAX_ROWS`): a batch of many rows
  builds a signed comb over ``ct_0`` for the column, a batch of few
  rows walks the base's squaring chain ``b^(16^k)`` by Yao's method.
* :class:`ChainCache` and :class:`ColumnCache` -- training decrypts
  the same ciphertexts every epoch and again in evaluation, so both
  modes keep what a ciphertext's column builds, process-wide under a
  byte budget with least-recently-used eviction (:class:`TableCache`).
  The chain cache packs each ``ct_0``'s squaring chain into one
  ``bytes`` object per ``(modulus, base)``; the column cache keeps a
  comb-mode column's odd powers and ``ct_0`` comb as Python ints, per
  modulus and whole ciphertext.  A ciphertext decrypted again pays only
  its rows' walks.

All are pure Python over ``int``; they beat CPython's C ``pow`` only
because they do asymptotically less work, so the window parameters are
chosen from measured crossover points (see
``benchmarks/bench_ablation_fastexp.py``).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Sequence

from repro.mathutils.modarith import batch_inverse, mod_inverse
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.utils.forksafe import renew_lock_after_fork

#: Exponent bit-width at or below which a plain ``pow`` loop beats the
#: interleaved multi-exponentiation (C pow on a tiny exponent costs less
#: than the Python-level bookkeeping of a shared window walk).
NAIVE_MULTIEXP_BITS = 16

#: Row count from which a fixed base's per-column signed comb (the
#: ``ct_0`` table) amortizes its build; smaller batches walk the base's
#: cached squaring chain (:class:`ChainCache`) by Yao's method instead,
#: one multiplication per base-16 digit plus up to 16 folds per row.
#: Measured at 256 bits (chain time / comb time per column, eta=9
#: weights, 2-core VM), cold cache / warm cache: 0.88x / 0.62x at 4
#: rows, 0.92x / 0.74x at 8, 0.95x / 0.84x at 12, 0.99x / 0.94x at 16,
#: 1.09x / 1.03x at 32 -- 16 is where the cold chain stops winning, so
#: the 4-filter columns of a small CNN walk chains and the MLP's 32-row
#: columns keep the comb.  One row reads 0.88x / 0.44x, where the C
#: ``pow`` this replaces read 0.65x.
CHAIN_MAX_ROWS = 16

#: Digit width of a chain walk: the chain holds ``b^(2^(4k))`` and each
#: exponent is recoded into signed digits ``-7..8``.
CHAIN_DIGIT_BITS = 4

#: Byte budget of :data:`GLOBAL_CHAIN_CACHE`: about 4,000 packed chains
#: at 256 bits (65 entries of 32 bytes each), four times a
#: ``cnn-serial`` job's 1,024 window ciphertexts.
CHAIN_CACHE_BYTES = 8 << 20

#: Byte budget of :data:`GLOBAL_COLUMN_CACHE`, in estimated resident
#: bytes: 88 ciphertexts of eta=64 at 256 bits (about 95 KB each), so
#: one ``mlp-serial`` job's 64 training ciphertexts stay without
#: eviction.
COLUMN_CACHE_BYTES = 8 << 20


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

    def __init__(self, base: int, modulus: int, order: int):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        if order <= 0:
            raise ValueError("order must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.order = order
        bits = order.bit_length()
        self.window = _comb_window(bits)
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


def _signed_digits(e: int, w: int):
    """``(k, d)`` for the non-zero signed base-``2^w`` digits of ``e >= 0``.

    ``e == sum(d * 2^(w*k))`` with every ``d`` in ``(-2^(w-1), 2^(w-1)]``.
    """
    mask, half = (1 << w) - 1, 1 << (w - 1)
    k = 0
    while e:
        d = e & mask
        if d > half:
            d -= 1 << w
        e = (e - d) >> w
        if d:
            yield k, d
        k += 1


def chain_length(order: int) -> int:
    """Entries ``b^(16^k)``, ``k = 0..ceil(bits/4)``, a chain walk reads
    for any exponent balanced mod ``order``."""
    return -(-order.bit_length() // CHAIN_DIGIT_BITS) + 1


class TableCache:
    """Process-wide tables of fixed bases, evicted least recently used
    under a byte budget.

    The shared half of :class:`ChainCache` and :class:`ColumnCache`:
    training decrypts the same ciphertexts every epoch and again in
    evaluation, so the tables a ciphertext's decryption builds are worth
    keeping.  Subclasses pick the key -- always including the modulus,
    since the same integer under another modulus is another table --
    the stored form and its byte cost; ``max_bytes`` bounds the bytes
    held.  An evicted table is rebuilt, never wrong, and a table larger
    than the whole budget is built and not kept.

    One lock guards the map and the ``hits``/``builds``/``evictions``
    counters, as in :class:`~repro.mathutils.dlog.SolverCache`; tables
    are built under it too.  A forked child starts with a fresh lock
    (:func:`~repro.utils.forksafe.renew_lock_after_fork`), and each pool
    worker fills its own copy of a ``GLOBAL_*`` cache.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        renew_lock_after_fork(self)

    def _fetch(self, key: tuple, usable, build) -> tuple[object, bool]:
        """``(value, True)`` when the value held under ``key`` passes
        ``usable``; else ``(result, False)`` from ``build()``, which
        returns ``(value, nbytes, result)``, keeping ``value`` in place
        of any held one."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and usable(entry[0]):
                self.hits += 1
                self._entries.move_to_end(key)
                return entry[0], True
            value, nbytes, result = build()
            self.builds += 1
            if entry is not None:
                del self._entries[key]
                self.nbytes -= entry[1]
            if nbytes <= self.max_bytes:
                self._entries[key] = (value, nbytes)
                self.nbytes += nbytes
                while self.nbytes > self.max_bytes:
                    _, (_, size) = self._entries.popitem(last=False)
                    self.nbytes -= size
                    self.evictions += 1
            return result, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def stats(self) -> dict[str, int]:
        """Consistent counter snapshot (one lock acquisition)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.nbytes,
                "hits": self.hits,
                "builds": self.builds,
                "evictions": self.evictions,
            }


class ChainCache(TableCache):
    """Squaring chains ``b^(16^k) mod modulus`` of fixed bases.

    A chain is what the few-row mode of :class:`SharedBaseMultiExp`
    walks for a ciphertext's ``ct_0``.  Entries are keyed by ``(modulus,
    base)`` and packed into one ``bytes`` object of fixed-width
    little-endian elements (about 2 KB at 256 bits; unpacked ints would
    take more than twice that); ``nbytes`` counts the packed bytes.
    """

    def get(self, base: int, modulus: int, length: int) -> list[int]:
        """``[base^(16^k) mod modulus for k in range(length)]``."""
        width = (modulus.bit_length() + 7) // 8

        def build():
            chain = [base]
            for _ in range(length - 1):
                chain.append(pow(chain[-1], 1 << CHAIN_DIGIT_BITS, modulus))
            packed = b"".join(v.to_bytes(width, "little") for v in chain)
            return packed, length * width, chain

        value, hit = self._fetch(
            (modulus, base), lambda packed: len(packed) >= length * width,
            build)
        if not hit:
            return value
        return [int.from_bytes(value[i:i + width], "little")
                for i in range(0, length * width, width)]


def _odd_power_table(bases: Sequence[int], w: int, modulus: int
                     ) -> list[int]:
    """``[b, b^3, .., b^(2^w - 1)]`` for every base, concatenated."""
    table: list[int] = []
    for base in bases:
        sq = base * base % modulus
        acc = base
        table.append(acc)
        for _ in range((1 << (w - 1)) - 1):
            acc = acc * sq % modulus
            table.append(acc)
    return table


def _comb_table(base: int, w: int, n_windows: int, modulus: int
                ) -> list[int]:
    """``base^(d * 2^(w*k))`` for ``d`` in ``1..2^(w-1)``, per window ``k``."""
    table: list[int] = []
    step = base
    for _ in range(n_windows):
        acc = step
        table.append(acc)
        for _ in range((1 << (w - 1)) - 1):
            acc = acc * step % modulus
            table.append(acc)
        step = acc * acc % modulus  # step ** 2^w
    return table


class ColumnCache(TableCache):
    """Comb-mode decryption columns' tables, kept across epochs.

    A column of :data:`CHAIN_MAX_ROWS` rows or more walks the odd powers
    of its bases ``ct_1..ct_eta`` and a signed comb over its fixed base
    ``ct_0`` (:meth:`SharedBaseMultiExp.eval_plan`); both depend on the
    ciphertext and the plan's windows only, so a ciphertext decrypted
    again under any key set reuses them.  Entries are keyed by the
    modulus and the *whole* ciphertext -- never by ``ct_0`` alone: a
    reused or forged nonce gives two ciphertexts one ``ct_0`` and
    different bases.  Each holds one list of Python ints, the odd powers
    then the comb, which is never mutated: a plan with another odd-power
    window, another comb window or more comb windows rebuilds both and
    replaces the entry.  Ints, not packed bytes as in
    :class:`ChainCache`: unpacking a 32-row column's 1,328 entries at
    256 bits costs two thirds of rebuilding them.  ``nbytes`` estimates
    the resident size, table and key, at ``sys.getsizeof(modulus) + 8``
    bytes per int (68 at 256 bits: about 95 KB for an eta=64 ciphertext
    at windows 4 and 5).
    """

    def tables(self, bases: tuple[int, ...], fixed_base: int, modulus: int,
               window: int | None, comb_window: int, comb_windows: int
               ) -> list[int]:
        """Odd powers of ``bases`` at ``window`` (none for None), then
        the comb over ``fixed_base`` of at least ``comb_windows``
        windows of ``comb_window`` bits."""
        def usable(held) -> bool:
            held_window, held_comb, held_windows, _ = held
            return held_window == window and held_comb == comb_window \
                and held_windows >= comb_windows

        def build():
            table = (_odd_power_table(bases, window, modulus) if window
                     else []) + _comb_table(fixed_base, comb_window,
                                            comb_windows, modulus)
            per_int = sys.getsizeof(modulus) + 8
            return ((window, comb_window, comb_windows, table),
                    (len(table) + len(bases) + 1) * per_int, table)

        value, hit = self._fetch((modulus, fixed_base, bases), usable, build)
        return value[3] if hit else value


#: The caches :class:`SharedBaseMultiExp` takes chains from by default
#: and :meth:`~repro.fe.feip.Feip.decrypt_rows` takes column tables from.
GLOBAL_CHAIN_CACHE = ChainCache(CHAIN_CACHE_BYTES)
GLOBAL_COLUMN_CACHE = ColumnCache(COLUMN_CACHE_BYTES)


def _collect_global_table_caches() -> dict[str, int]:
    """Scrape-time view of this process's chain and column caches.

    Pool workers fill their own caches, which this collector cannot
    see: a pooled run's cache counts stay invisible until workers
    report their metrics back to the parent (ROADMAP item 8).
    """
    chain = GLOBAL_CHAIN_CACHE.stats()
    column = GLOBAL_COLUMN_CACHE.stats()
    return {
        "repro_fastexp_chain_cache_hits_total": chain["hits"],
        "repro_fastexp_chain_cache_builds_total": chain["builds"],
        "repro_fastexp_chain_cache_evictions_total": chain["evictions"],
        "repro_fastexp_chain_cache_bytes": chain["bytes"],
        "repro_fastexp_column_cache_hits_total": column["hits"],
        "repro_fastexp_column_cache_builds_total": column["builds"],
        "repro_fastexp_column_cache_evictions_total": column["evictions"],
        "repro_fastexp_column_cache_bytes": column["bytes"],
    }


GLOBAL_REGISTRY.register_collector(
    "fastexp.global_table_caches", _collect_global_table_caches)


def _yao(groups: list[tuple[int, ...]], chain: list[int], modulus: int,
         acc: int) -> int:
    """``acc * prod_k chain[k]^|d_k|`` by Yao's two accumulators.

    ``groups`` lists the chain indices of each digit magnitude, the
    largest first: the running product ``run`` gains a magnitude's
    entries, then ``acc`` multiplies in ``run``, so an entry of
    magnitude j enters ``acc`` exactly j times.
    """
    run = 1
    for ks in groups:
        for k in ks:
            run = run * chain[k] % modulus
        acc = acc * run % modulus
    return acc


def _chain_groups(fixed: int) -> tuple[list, list]:
    """(numerator, denominator) Yao groups of ``fixed``'s chain digits."""
    half = 1 << (CHAIN_DIGIT_BITS - 1)
    sides: tuple[list, list] = ([[] for _ in range(half)],
                                [[] for _ in range(half)])
    sign = 1 if fixed > 0 else -1
    for k, d in _signed_digits(abs(fixed), CHAIN_DIGIT_BITS):
        d *= sign
        sides[d < 0][abs(d) - 1].append(k)
    groups = []
    for magnitudes in sides:
        top = max((j for j, ks in enumerate(magnitudes) if ks), default=-1)
        groups.append([tuple(magnitudes[j]) for j in range(top, -1, -1)])
    return groups[0], groups[1]


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
    digits of ``window`` bits, walked top-down with one squaring per bit;
    the window is sized for the weights' magnitude and the row count.
    A fixed exponent per row (FEIP's ``-sk``, or a nonce) takes one of
    two modes, picked by the row count alone.  A batch of
    :data:`CHAIN_MAX_ROWS` rows or more recodes it into signed digits of
    a comb over the fixed base; its positive digits join the numerator,
    its negative ones the denominator, after the last squaring.  A
    smaller batch recodes it into signed base-16 digits grouped by
    magnitude (``chain_ops``), which the column walks against the
    base's cached squaring chain by Yao's method.

    Exponents are reduced to their balanced form mod ``order``, the
    order of the bases' subgroup.  ``source`` is an opaque tag of what
    the rows were recoded from (FEIP: the keys' ``sk``), kept so a
    caller can check that a plan belongs to the keys it is handed with.
    """

    def __init__(self, rows: Sequence[Sequence[int]], order: int,
                 fixed_exponents: Sequence[int] | None = None,
                 source: object = None):
        rows = [[_balanced(int(e), order) for e in row] for row in rows]
        self.n_rows = len(rows)
        self.n_bases = len(rows[0]) if rows else 0
        if any(len(row) != self.n_bases for row in rows):
            raise ValueError("exponent rows must have equal length")
        self.source = source
        self.has_fixed = fixed_exponents is not None
        fixed = [_balanced(int(f), order) for f in fixed_exponents or ()]
        if self.has_fixed and len(fixed) != self.n_rows:
            raise ValueError("fixed_exponents must supply one exponent per row")
        max_bits = max((abs(e).bit_length() for row in rows for e in row),
                       default=0)
        #: odd-power window width; None when every weight is zero
        self.window = _shared_window(max_bits, self.n_bases, self.n_rows) \
            if max_bits else None
        fixed_bits = max((abs(f).bit_length() for f in fixed), default=0)
        #: signed-comb window and window count for the fixed base
        self.comb_window: int | None = None
        self.comb_windows = 0
        #: per row, the (numerator, denominator) Yao groups of its fixed
        #: exponent over a chain of ``chain_len`` entries
        self.chain_ops: list[tuple[list, list]] | None = None
        self.chain_len = 0
        if fixed_bits and self.n_rows >= CHAIN_MAX_ROWS:
            self.comb_window = amortized_comb_window(fixed_bits, self.n_rows)
            self.comb_windows = (fixed_bits + self.comb_window) \
                // self.comb_window
        elif fixed_bits:
            self.chain_len = chain_length(order)
            self.chain_ops = [_chain_groups(f) for f in fixed]
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
            half = 1 << (w - 1)
            offset = self.n_bases * (1 << (self.window - 1)) \
                if self.window else 0
            for k, d in _signed_digits(abs(fixed), w):
                # the fixed base's sign flips a digit's side
                same_side = (d > 0) == (fixed > 0)
                (num_tail if same_side else den_tail).append(
                    offset + k * half + abs(d) - 1)
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
    small-digit walk is wrong), either a signed comb sized by
    :func:`amortized_comb_window` for the batch or, for a batch under
    :data:`CHAIN_MAX_ROWS` rows, the base's squaring chain from
    :data:`GLOBAL_CHAIN_CACHE`.  With a ``column_cache`` the odd powers
    and comb of a comb-mode plan come from that cache instead, keyed by
    the whole base tuple; otherwise they live and die with the context.
    :meth:`eval_plan` walks every row against them and divides out all
    denominators with one :func:`~repro.mathutils.modarith.batch_inverse`.
    Results are exact integers, but a plan's exponents are reduced mod
    its ``order`` as in :func:`multiexp`, so for
    :func:`~repro.mathutils.group.canonical` bases (ciphertext elements)
    they are exact only up to sign.
    """

    def __init__(self, bases: Sequence[int], modulus: int,
                 fixed_base: int | None = None,
                 column_cache: ColumnCache | None = None):
        if modulus <= 1:
            raise ValueError("modulus must be > 1")
        self.bases = tuple(b % modulus for b in bases)
        self.modulus = modulus
        self.fixed_base = fixed_base % modulus if fixed_base is not None \
            else None
        #: where comb-mode plans take their tables (None: built here)
        self.column_cache = column_cache
        #: window of the odd-power tables last built (None before)
        self.window: int | None = None
        self._tables: list[int] = []
        self._fixed_table: list[int] | None = None
        self._fixed_shape: tuple[int, int] | None = None

    # -- tables ---------------------------------------------------------------
    def _odd_powers(self, w: int) -> list[int]:
        """``[b, b^3, .., b^(2^w - 1)]`` for every base, concatenated."""
        if self.window != w:
            self.window = w
            self._tables = _odd_power_table(self.bases, w, self.modulus)
        return self._tables

    def _comb(self, w: int, n_windows: int) -> list[int]:
        """``fixed_base^(d * 2^(w*k))`` for ``d`` in ``1..2^(w-1)``, per window ``k``."""
        if self._fixed_shape != (w, n_windows):
            self._fixed_shape = (w, n_windows)
            self._fixed_table = _comb_table(self.fixed_base, w, n_windows,
                                            self.modulus)
        return self._fixed_table

    def _plan_table(self, plan: RowPlan) -> list[int]:
        """The odd powers at ``plan.window``, then any comb it walks."""
        if plan.comb_window and self.column_cache is not None:
            return self.column_cache.tables(
                self.bases, self.fixed_base, self.modulus, plan.window,
                plan.comb_window, plan.comb_windows)
        table = self._odd_powers(plan.window) if plan.window else []
        if plan.comb_window:
            table = table + self._comb(plan.comb_window, plan.comb_windows)
        return table

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
        table = self._plan_table(plan)
        nums = [_walk(num_ops, table, modulus) for num_ops, _ in plan.ops]
        dens = [_walk(den_ops, table, modulus) for _, den_ops in plan.ops]
        if plan.chain_ops is not None:
            chain = GLOBAL_CHAIN_CACHE.get(self.fixed_base, modulus,
                                           plan.chain_len)
            for i, (num_groups, den_groups) in enumerate(plan.chain_ops):
                nums[i] = _yao(num_groups, chain, modulus, nums[i])
                dens[i] = _yao(den_groups, chain, modulus, dens[i])
        divided = [i for i, d in enumerate(dens) if d != 1]
        if divided:
            inverses = batch_inverse([dens[i] for i in divided], modulus)
            for i, inverse in zip(divided, inverses):
                nums[i] = nums[i] * inverse % modulus
        return nums
