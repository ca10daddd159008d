"""Prime-order Schnorr groups.

Both functional-encryption schemes in CryptoNN (FEIP from Abdalla et al.
and the paper's new FEBO) operate in a cyclic group where DDH is assumed
hard.  We use the classic Schnorr construction: a safe prime ``p = 2q+1``
and the order-``q`` subgroup of quadratic residues of Z_p^*, generated by
``g``.  Exponents live in Z_q, elements in Z_p.

**Element encoding.**  Every shipped ``p`` is a safe prime, so ``p = 3
(mod 4)`` and -1 is a quadratic non-residue: exactly one of ``x`` and
``p - x`` lies in the subgroup.  Following Hofheinz and Kiltz ("The
Group of Signed Quadratic Residues and Applications", CRYPTO 2009), a
scheme hands out each ciphertext element and FEBO function key as its
:func:`canonical` form ``|x| = min(x, p - x)``, which maps the subgroup
one-to-one onto ``[1, q]``.  The map commutes, up to sign, with
products, signed powers and inverses, so a decryption computed from
canonical elements is right up to sign, and
:class:`~repro.mathutils.dlog.DlogSolver` compares canonical forms.  It
is efficient both ways, so the "signed" group is isomorphic to the
subgroup as a DDH group: DDH, and with it the IND-CPA arguments for FEIP
and FEBO, carry over unchanged.  What changes is the membership test of
an untrusted element: ``0 < v <= q`` (:func:`validate_subgroup_element`)
instead of a Legendre symbol.  Public keys, nonces and everything
:class:`SchnorrGroup` and :mod:`~repro.mathutils.fastexp` compute stay
raw residues, because their exponent reductions mod ``q`` are exact
only for subgroup bases.

``GroupParams.predefined(bits)`` returns fixed, pre-generated parameters
(deterministically produced once with seed 20190419) so that tests and
benchmarks do not pay the safe-prime search on every run -- the same role
the standardized MODP groups play in practice.  ``GroupParams.generate``
performs a fresh search when fresh parameters are wanted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.mathutils.fastexp import FixedBaseExp, multiexp
from repro.mathutils.modarith import mod_inverse
from repro.mathutils.primes import gen_safe_prime, is_probable_prime
from repro.obs.metrics import GLOBAL_REGISTRY

# bits -> (safe prime p, generator g of the order-q subgroup, q = (p-1)//2)
_PREDEFINED: dict[int, tuple[int, int]] = {
    32: (4134382943, 4),
    48: (143675757939863, 4),
    64: (15070765297324191839, 4),
    80: (737896683694053225585443, 9),
    96: (58715541116036178448802865659, 9),
    128: (190744708791603788031294865001099754287, 4),
    192: (3825371016552611710659039634650282350524477058177567131163, 9),
    256: (87699941862315193948818242475437698472241383445244401832787674199151422237663, 4),
    512: (7186823263989548319113548308074716316493206672896396133970436599218040684856466890076156096416002379628327840820876002550474260892572363609390042947647167, 4),
}

#: The security parameter used in the paper's experiments (Section IV-B1).
PAPER_SECURITY_BITS = 256

#: Small group used throughout the test-suite for speed.  32-bit groups are
#: NOT secure; they only exercise the identical code path cheaply.
TOY_SECURITY_BITS = 32

#: Memory budget for cached fixed-base tables per group instance,
#: denominated in precomputed group elements (~50 MB of 256-bit ints at
#: the default).  Encryption touches one table per public-key slot, so
#: wide keys could otherwise accumulate hundreds of MB.  Once the budget
#: is spent, ``exp_cached`` falls back to plain ``pow`` for new bases
#: rather than evicting -- eviction would thrash when a key wider than
#: the budget is swept slot-by-slot every encryption.
FIXED_BASE_CACHE_ENTRIES = 1_000_000


@dataclass(frozen=True)
class GroupParams:
    """Public parameters ``(G, p, g)`` of a Schnorr group.

    Attributes:
        p: safe prime modulus.
        q: prime order of the subgroup, ``q = (p - 1) // 2``.
        g: generator of the order-``q`` subgroup.
    """

    p: int
    q: int
    g: int

    @classmethod
    def predefined(cls, bits: int) -> "GroupParams":
        """Return fixed pre-generated parameters for a supported size."""
        try:
            p, g = _PREDEFINED[bits]
        except KeyError:
            supported = sorted(_PREDEFINED)
            raise ValueError(
                f"no predefined {bits}-bit group; supported sizes: {supported}"
            ) from None
        return cls(p=p, q=(p - 1) // 2, g=g)

    @classmethod
    def generate(cls, bits: int, rng: random.Random | None = None) -> "GroupParams":
        """Freshly generate parameters (slow for large ``bits``)."""
        p, q = gen_safe_prime(bits, rng=rng)
        rng = rng or random
        while True:
            h = rng.randrange(2, p - 1)
            g = pow(h, 2, p)  # squaring lands in the QR subgroup of order q
            if g != 1:
                return cls(p=p, q=q, g=g)

    def validate(self) -> None:
        """Check internal consistency; raises ValueError when broken."""
        if self.p != 2 * self.q + 1:
            raise ValueError("p != 2q + 1")
        if not is_probable_prime(self.p) or not is_probable_prime(self.q):
            raise ValueError("p or q is not prime")
        if self.g in (0, 1) or pow(self.g, self.q, self.p) != 1:
            raise ValueError("g does not generate the order-q subgroup")

    @property
    def bits(self) -> int:
        return self.p.bit_length()


class SchnorrGroup:
    """Arithmetic in the order-``q`` subgroup defined by :class:`GroupParams`.

    Elements are plain Python ints in ``[1, p)``; exponents are reduced
    modulo ``q`` so callers may pass negative or oversized exponents.
    """

    def __init__(self, params: GroupParams, rng: random.Random | None = None):
        self.params = params
        self._rng = rng or random.Random()
        self._fixed_bases: dict[int, FixedBaseExp] = {}
        self._fixed_base_entries = 0
        self._g_inverse: int | None = None

    # -- convenience accessors -------------------------------------------------
    @property
    def p(self) -> int:
        return self.params.p

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def g(self) -> int:
        return self.params.g

    # -- group operations ------------------------------------------------------
    def exp(self, base: int, exponent: int) -> int:
        """Return ``base ** exponent mod p`` with the exponent in Z_q."""
        return pow(base, exponent % self.q, self.p)

    def fixed_base(self, base: int) -> FixedBaseExp:
        """Cached fixed-base exponentiation table for ``base``.

        Tables are built once per ``(base, modulus)`` and reused for the
        lifetime of the group; callers should only request them for
        bases that are exponentiated repeatedly (``g``, public-key
        components), never for per-ciphertext elements: a ciphertext's
        ``ct_0`` is raised on a comb built per column or on its squaring
        chain in :class:`~repro.mathutils.fastexp.ChainCache`, which
        holds about 2 KB per base instead of a comb's tables.
        """
        table = self._fixed_bases.get(base)
        if table is None:
            table = FixedBaseExp(base, self.p, self.q)
            self._fixed_bases[base] = table
            self._fixed_base_entries += table.table_entries
            # table builds are rare (once per reused base), so a locked
            # registry increment here costs nothing on the exp hot path
            GLOBAL_REGISTRY.counter(
                "repro_fastexp_comb_tables_total").inc()
            GLOBAL_REGISTRY.counter(
                "repro_fastexp_comb_table_entries_total").inc(
                    table.table_entries)
        return table

    def exp_cached(self, base: int, exponent: int) -> int:
        """Like :meth:`exp` but through the fixed-base table cache.

        Every group size walks the same comb; only new bases past the
        :data:`FIXED_BASE_CACHE_ENTRIES` memory budget fall back to plain
        ``pow``.  Only use for heavily reused bases.
        """
        table = self._fixed_bases.get(base)
        if table is None:
            if self._fixed_base_entries >= FIXED_BASE_CACHE_ENTRIES:
                return pow(base, exponent % self.q, self.p)
            table = self.fixed_base(base)
        return table.pow(exponent)

    def gexp(self, exponent: int) -> int:
        """Return ``g ** exponent mod p``.

        The exponent is reduced to its balanced representative in
        ``(-q/2, q/2]``: the positive half walks ``g``'s comb and the
        negative half a comb over ``g^{-1}`` (built on first use), so a
        small negative exponent -- a signed encoded plaintext -- walks
        one window instead of every window of ``q - |x|``.
        """
        q = self.q
        e = exponent % q
        if e <= q // 2:
            return self.exp_cached(self.params.g, e)
        if self._g_inverse is None:
            self._g_inverse = mod_inverse(self.params.g, self.p)
        return self.exp_cached(self._g_inverse, q - e)

    def multiexp(self, bases, exponents) -> int:
        """Return ``prod bases[i] ** exponents[i] mod p`` (signed-aware).

        Delegates to :func:`repro.mathutils.fastexp.multiexp`; exponents
        are reduced to the balanced representation mod ``q``, so small
        negative exponents stay cheap.
        """
        return multiexp(bases, exponents, self.p, order=self.q)

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def div(self, a: int, b: int) -> int:
        return a * mod_inverse(b, self.p) % self.p

    def inv(self, a: int) -> int:
        return mod_inverse(a, self.p)

    def exp_inverse(self, exponent: int) -> int:
        """Return the inverse of ``exponent`` in the exponent ring Z_q."""
        return mod_inverse(exponent % self.q, self.q)

    # -- sampling ---------------------------------------------------------------
    def random_exponent(self) -> int:
        """Sample a uniform exponent from Z_q (used for nonces/keys)."""
        return self._rng.randrange(self.q)

    def random_element(self) -> int:
        """Sample a uniform element of the subgroup."""
        return self.gexp(self.random_exponent())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchnorrGroup(bits={self.params.bits})"


def canonical(x: int, p: int) -> int:
    """The signed representative ``|x| = min(x, p - x)`` of a residue
    ``x`` in ``[0, p)``.

    On a subgroup element it is the element's encoding in the group of
    signed quadratic residues (module docstring), a value in ``[1, q]``.
    """
    return x if x <= p >> 1 else p - x


def validate_subgroup_element(value: int, params: GroupParams) -> None:
    """Reject an integer that does not encode a subgroup element.

    Ciphertext elements travel in :func:`canonical` form, and that form
    maps the order-``q`` subgroup one-to-one onto ``[1, q]``, so
    membership is the range check ``0 < value <= q``.  An element
    outside it would make discrete-log recovery fail (or, worse,
    silently decode garbage into the training loop), so ingestion
    rejects it at the unpack boundary -- on every element of an
    untrusted upload.

    Raises:
        ValueError: when ``value`` is outside ``(0, p)``, or above ``q``.
    """
    if not 0 < value < params.p:
        raise ValueError(
            f"group element {value} outside (0, p) for modulus of "
            f"{params.p.bit_length()} bits")
    if value > params.q:
        raise ValueError(
            "group element is above q, so it encodes no element of the "
            "signed prime-order subgroup")
