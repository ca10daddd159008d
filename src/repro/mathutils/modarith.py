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

