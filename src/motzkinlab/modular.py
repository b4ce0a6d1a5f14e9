"""Prime generation, Legendre symbols, Fermat quotients."""
from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    """Trial division: each n asked about is a prime of at most 10^7 (the cap in
    ParamRange.validate) or a divisor of n in LEM-2.3's q-Lucas check."""
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
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
