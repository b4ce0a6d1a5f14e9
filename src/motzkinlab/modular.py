"""Prime generation, Legendre symbols, Fermat quotients."""
from __future__ import annotations

from math import isqrt


# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 2^64 (strong probable-prime test
    with the fixed witness set beyond that)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending (simple sieve)."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            start = p * p
            sieve[start: hi + 1: p] = b"\x00" * ((hi - start) // p + 1)
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre: {p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def fermat_quotient(a: int, p: int) -> int:
    """(a^(p-1) - 1)/p reduced mod p, computed via a^(p-1) mod p^2."""
    if not is_prime(p):
        raise ValueError(f"fermat_quotient: {p} is not prime")
    if a % p == 0:
        raise ValueError("fermat_quotient: requires p not dividing a")
    return (pow(a, p - 1, p * p) - 1) // p % p
