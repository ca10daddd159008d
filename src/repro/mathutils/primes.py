"""Primality testing and safe-prime generation.

The CryptoNN prototype relied on GMP through the Charm toolkit; here the
same functionality is provided in pure Python.  The Miller-Rabin test with
40 rounds gives an error probability below 2^-80, which matches common
cryptographic practice.
"""

from __future__ import annotations

import random

# Small primes used as a cheap trial-division filter before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

#: Miller-Rabin witnesses :func:`is_probable_prime` tries.
MILLER_RABIN_ROUNDS = 40


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Return True if ``n`` passes trial division and
    :data:`MILLER_RABIN_ROUNDS` rounds of Miller-Rabin.

    Args:
        n: candidate integer.
        rng: optional random source (useful for reproducible tests).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    rng = rng or random
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_safe_prime(bits: int, rng: random.Random | None = None) -> tuple[int, int]:
    """Generate a safe prime ``p = 2q + 1`` of ``bits`` bits.

    Returns:
        ``(p, q)`` where both are prime and ``p`` has ``bits`` bits.

    Safe primes give a prime-order subgroup of Z_p^* of index 2 -- the
    standard setting in which the DDH assumption underlying both FEIP and
    FEBO is believed to hold.
    """
    if bits < 4:
        raise ValueError("safe primes need at least 4 bits")
    rng = rng or random
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rng=rng):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rng=rng):
            return p, q
