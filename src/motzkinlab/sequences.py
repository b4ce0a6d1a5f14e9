"""Exact integer sequences: Motzkin, central trinomial, Catalan, Narayana,
Delannoy, Schroder numbers, their (b, c) generalizations, and the signed
Motzkin analogue W.

Every function returns exact Python ints.  The tables are filled by the
families' holonomic recurrences (Petkovsek-Wilf-Zeilberger, "A = B"), each
entry from the ones before it:

    n T_n(b,c) = (2n-1) b T_(n-1) - (n-1) d T_(n-2)              T_0 = 1, T_1 = b
    (n+2) M_n(b,c) = (2n+1) b M_(n-1) - (n-1) d M_(n-2)          M_0 = 1, M_1 = b

with d = b^2 - 4c; every division is exact.  Motzkin, central trinomial,
Catalan, Delannoy and both Schroder sequences are reads of the two (b, c)
families: M_n = M_n(1,1), T_n = T_n(1,1), C_k = M_2k(0,1), D_n = T_n(3,2),
s_n = M_(n-1)(3,2) and S_n = 2 s_n (n >= 1).  W_n is read off T_n through
the generating function W(x) = -(1 - 2x - 3x^2) T(x) / (1 - x)^2, not
through the recurrence the verifier checks for it (REC-W).

All tables, and the other caches of the package, are ``_PrefixCache``
instances, and ``_reset_caches()`` empties every one of them.  A cache's
``at`` fills the key's list itself, in one loop up to the entry it reads.
No cache takes a lock: a step reads the entries before its own by position,
never from the end, and a fill stores entry k by the one slice assignment
``vals[k:k + 1] = (value,)``.  Threads that fill the same entry compute it
from the same entries, so they store equal values at the same position.
Values never depend on the cache state, and all functions are safe to call
from multiple threads.
"""
from __future__ import annotations

import math
import weakref

_CACHES: weakref.WeakSet[_PrefixCache] = weakref.WeakSet()


class _PrefixCache:
    """Keyed prefix cache: entry i of ``key`` is ``step(prefix, i, key)``.

    ``at`` fills the key's list itself, in order from index ``start`` up to
    the entry it reads; ``prefix`` is that list, which holds entries
    ``start .. i-1`` and may hold more.  A step reads entry j as
    ``prefix[j - start]``, never from the end, and never calls its own
    cache.  A fill stores entry i by one slice assignment, which appends it
    or overwrites an equal value that another thread stored first.  Every
    instance registers, weakly, with ``_reset_caches``.
    """

    def __init__(self, step, start: int = 0):
        self._step = step
        self._start = start
        self._data: dict = {}
        _CACHES.add(self)

    def at(self, i: int, key=()):
        """Entry i of ``key``, filling the key's list up to it."""
        vals = self._data.get(key)
        j = i - self._start
        if vals is not None and 0 <= j < len(vals):
            return vals[j]
        if j < 0:
            raise ValueError(f"cache index {i} below start {self._start}")
        if vals is None:
            vals = self._data.setdefault(key, [])
        step, start = self._step, self._start
        while (k := len(vals)) <= j:
            vals[k:k + 1] = (step(vals, start + k, key),)
        return vals[j]

    def prefix(self, i: int, key=()) -> list:
        """Entries start..i of ``key`` as a fresh list (empty for i < start)."""
        if i < self._start:
            return []
        self.at(i, key)
        return self._data[key][: i - self._start + 1]


def _reset_caches() -> None:
    """Testing hook: empty every prefix cache of the package."""
    for cache in _CACHES:
        cache._data.clear()


def narayana(m: int, k: int) -> int:
    """Narayana number C(m, k) * C(m, k-1) / m for m >= k >= 1."""
    if k < 1 or m < k:
        raise ValueError("narayana: need m >= k >= 1")
    q, r = divmod(math.comb(m, k) * math.comb(m, k - 1), m)
    if r:
        raise AssertionError(f"narayana({m}, {k}) is not an integer")
    return q


def _gen_trinomial_step(t: list, n: int, key: tuple[int, int]) -> int:
    b, c = key
    if n < 2:
        return b if n else 1
    return ((2 * n - 1) * b * t[n - 1] - (n - 1) * (b * b - 4 * c) * t[n - 2]) // n


def _gen_motzkin_step(m: list, n: int, key: tuple[int, int]) -> int:
    b, c = key
    if n < 2:
        return b if n else 1
    return ((2 * n + 1) * b * m[n - 1] - (n - 1) * (b * b - 4 * c) * m[n - 2]) // (n + 2)


_GEN_TRINOMIAL = _PrefixCache(_gen_trinomial_step)
_GEN_MOTZKIN = _PrefixCache(_gen_motzkin_step)


def gen_trinomial(n: int, b: int, c: int) -> int:
    """Generalized central trinomial coefficient:
    sum_k C(n, 2k) * C(2k, k) * b^(n-2k) * c^k."""
    if n < 0:
        raise ValueError("gen_trinomial: n must be >= 0")
    return _GEN_TRINOMIAL.at(n, (b, c))


def gen_trinomial_values(n_max: int, b: int, c: int) -> list[int]:
    return _GEN_TRINOMIAL.prefix(n_max, (b, c))


def gen_motzkin(n: int, b: int, c: int) -> int:
    """Generalized Motzkin number:
    sum_k C(n, 2k) * Catalan(k) * b^(n-2k) * c^k."""
    if n < 0:
        raise ValueError("gen_motzkin: n must be >= 0")
    return _GEN_MOTZKIN.at(n, (b, c))


def gen_motzkin_values(n_max: int, b: int, c: int) -> list[int]:
    return _GEN_MOTZKIN.prefix(n_max, (b, c))


def catalan(k: int) -> int:
    """Catalan number C(2k, k)/(k+1) = M_2k(0, 1): at b = 0 only the top
    term of M_n(b, c)'s sum survives, so the table's odd entries are 0."""
    if k < 0:
        raise ValueError("catalan: k must be >= 0")
    return _GEN_MOTZKIN.at(2 * k, (0, 1))


def motzkin(n: int) -> int:
    """Motzkin number: sum_k C(n, 2k) * Catalan(k) = M_n(1, 1)."""
    if n < 0:
        raise ValueError("motzkin: n must be >= 0")
    return _GEN_MOTZKIN.at(n, (1, 1))


def motzkin_values(n_max: int) -> list[int]:
    return _GEN_MOTZKIN.prefix(n_max, (1, 1))


def central_trinomial(n: int) -> int:
    """Central trinomial coefficient: constant term of (1 + x + 1/x)^n,
    sum_k C(n, 2k) * C(2k, k) = T_n(1, 1)."""
    if n < 0:
        raise ValueError("central_trinomial: n must be >= 0")
    return _GEN_TRINOMIAL.at(n, (1, 1))


def central_trinomial_values(n_max: int) -> list[int]:
    return _GEN_TRINOMIAL.prefix(n_max, (1, 1))


def delannoy(n: int) -> int:
    """Central Delannoy number: sum_k C(n, k) * C(n+k, k) = T_n(3, 2)."""
    if n < 0:
        raise ValueError("delannoy: n must be >= 0")
    return _GEN_TRINOMIAL.at(n, (3, 2))


def delannoy_values(n_max: int) -> list[int]:
    return _GEN_TRINOMIAL.prefix(n_max, (3, 2))


def schroder_little(n: int) -> int:
    """Little Schroder number s_n = sum_k N(n, k) * 2^(n-k) = M_(n-1)(3, 2),
    defined for n >= 1."""
    if n < 1:
        raise ValueError("schroder_little: n must be >= 1 (s_0 is undefined)")
    return _GEN_MOTZKIN.at(n - 1, (3, 2))


def schroder_little_values(n_max: int) -> list[int]:
    """[s_1, ..., s_n_max]."""
    return _GEN_MOTZKIN.prefix(n_max - 1, (3, 2))


def schroder_large(n: int) -> int:
    """Large Schroder number: sum_k C(n+k, 2k) * Catalan(k), which is 2 s_n
    for n >= 1."""
    if n < 0:
        raise ValueError("schroder_large: n must be >= 0")
    return 2 * _GEN_MOTZKIN.at(n - 1, (3, 2)) if n else 1


def w_coeff(n: int, k: int) -> int:
    """Triangle entry w(n, k) = C(n-1, k-1) * C(n+k, k-1) / k for n >= k >= 1."""
    if k < 1 or n < k:
        raise ValueError("w_coeff: need n >= k >= 1")
    q, r = divmod(math.comb(n - 1, k - 1) * math.comb(n + k, k - 1), k)
    if r:
        raise AssertionError(f"w_coeff({n}, {k}) is not an integer")
    return q


def _motzkin_analog_w_step(w: list, n: int, _key) -> int:
    # W(x) = -sqrt(1 - 2x - 3x^2)/(1 - x)^2 and T(x) = 1/sqrt(1 - 2x - 3x^2), so
    # (1 - x)^2 W(x) = -(1 - 2x - 3x^2) T(x), which gives W_0 = W_1 = -1
    if n < 2:
        return -1
    t = _GEN_TRINOMIAL.at
    return 2 * w[n - 1] - w[n - 2] - (t(n, (1, 1)) - 2 * t(n - 1, (1, 1)) - 3 * t(n - 2, (1, 1)))


_MOTZKIN_ANALOG_W = _PrefixCache(_motzkin_analog_w_step)


def motzkin_analog_w(n: int) -> int:
    """Signed Motzkin analogue W_n = sum_k C(n, 2k) * C(2k, k)/(2k-1).

    W_0 = -1 and the family satisfies
    (n+3) W_{n+3} = (3n+7) W_{n+2} + (n-5) W_{n+1} - 3(n+1) W_n.
    """
    if n < 0:
        raise ValueError("motzkin_analog_w: n must be >= 0")
    return _MOTZKIN_ANALOG_W.at(n)


def motzkin_analog_w_values(n_max: int) -> list[int]:
    return _MOTZKIN_ANALOG_W.prefix(n_max)
