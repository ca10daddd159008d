"""Modular-arithmetic helpers shared by the crypto substrate."""

from __future__ import annotations


def mod_inverse(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    CPython's C ``pow(a, -1, m)`` (~10 us at 256 bits, half the cost of
    a Python-level extended gcd).

    Raises:
        ValueError: if ``gcd(a, m) != 1`` (no inverse exists).
    """
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} has no inverse modulo {m}") from None


def batch_inverse(values: list[int], m: int) -> list[int]:
    """Invert many residues modulo ``m`` with a single modular inversion.

    Montgomery's trick: one :func:`mod_inverse` of the running product
    plus three multiplications per element, instead of one inversion
    each -- an inversion is ~40x the cost of a multiplication at 256
    bits, so :class:`repro.mathutils.fastexp.SharedBaseMultiExp` inverts
    the denominators of a whole column this way.

    Raises:
        ValueError: if any value shares a factor with ``m``.
    """
    if not values:
        return []
    prefix = []
    acc = 1
    for v in values:
        acc = acc * v % m
        prefix.append(acc)
    inv = mod_inverse(acc, m)
    out: list[int] = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = prefix[i - 1] * inv % m
        inv = inv * (values[i] % m) % m
    out[0] = inv
    return out


def jacobi_symbol(a: int, n: int) -> int:
    """Return the Jacobi symbol ``(a/n)`` for odd ``n > 0``.

    For prime ``n`` this is the Legendre symbol: 1 when ``a`` is a
    quadratic residue mod ``n``, -1 when it is not, 0 when ``n``
    divides ``a``.  Binary quadratic-reciprocity algorithm -- O(log^2)
    bit operations, two orders of magnitude cheaper than the
    ``pow(a, q, p)`` subgroup test at 256 bits, which is what makes
    per-element ciphertext validation affordable on the ingestion path.

    Raises:
        ValueError: if ``n`` is even or not positive.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires an odd positive modulus")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def int_to_signed(value: int, modulus: int) -> int:
    """Map a residue in ``[0, modulus)`` to the signed window.

    Residues below ``modulus // 2`` are returned as-is; larger residues are
    interpreted as negative (``value - modulus``).  This is the standard
    balanced representation used by the fixed-point codec.
    """
    value %= modulus
    if value > modulus // 2:
        return value - modulus
    return value


def signed_to_int(value: int, modulus: int) -> int:
    """Inverse of :func:`int_to_signed`: map a signed value into Z_m."""
    return value % modulus
