"""Executable claim registry.

Every numbered identity, divisibility, congruence, and conjecture over the
sequence/polynomial families is registered here as a ``Claim``: a parameter
``Grid`` plus an exact-arithmetic point checker returning ``("ok", derived)``
or ``("fail", lhs, rhs)``; grids yield ``Skip`` outside a claim's domain,
and the engine in ``verify`` joins the report parts of point blocks in order.

Deliberately broken variants (MUT-*) are registered alongside the real
claims.  Each runs its real claim's checker with one weight changed (MUT-LEM-2.3
is LEM-2.3's checker at w = 3), so it must produce counterexamples, and a
checker that passes everything turns its fixture verified: the fixtures prove
the checkers are not vacuous.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, repeat
from math import comb, gcd
from typing import Callable, Iterable

from . import modular, sequences as seq
from .polynomials import (Poly, ZERO, _binomial_transform, _expand_in_y, _fold, _Packed,
                          big_schroder_poly, q_binomial, q_integer, s_poly, w_poly)
from .reports import ParamRange, _digits


class NonIntegral(ArithmeticError):
    """An exact quotient that the claims guarantee to be integral was not."""

    def __init__(self, message: str, remainder):
        super().__init__(message, remainder)  # both arguments, so it pickles across the pool
        self.remainder = remainder

    def __str__(self) -> str:
        return self.args[0]


# ---------------------------------------------------------------------------
# Golden quotient operations
# ---------------------------------------------------------------------------

def s_quotient(n: int) -> int:
    """s(n) = (2/n) * sum_{k=1..n} (2k+1) * Motzkin(k)^2 (always an integer)."""
    if n < 1:
        raise ValueError("s_quotient: n must be >= 1")
    total = 2 * _WSUM_M.at(n, 1)
    q, r = divmod(total, n)
    if r:
        raise NonIntegral(f"s_quotient({n}): remainder {r}", r)
    return q


def t_quotient(n: int) -> int:
    """t(n) = 6/(n^2(n^2-1)) * sum_{k=0..n-1} k(k+1)(8k+9) T_k T_{k+1}."""
    if n < 2:
        raise ValueError("t_quotient: n must be >= 2")
    total = 6 * _TT_SUM.at(n, 9)
    q, r = divmod(total, n * n * (n * n - 1))
    if r:
        raise NonIntegral(f"t_quotient({n}): remainder {r}", r)
    return q


# ---------------------------------------------------------------------------
# Running accumulators (incremental prefix sums, cached per claim and key)
# ---------------------------------------------------------------------------

class _Acc(seq._PrefixCache):
    """Cached accumulator A(n) = step(A(n-1), n, key) with A(start-1) = init.

    ``at`` fills the key's list itself: the list is made holding entry 0,
    A(start-1) = init, and entry k is stepped from entry k-1, read by
    position, never from the end.
    """

    def __init__(self, start: int, step, init=0):
        super().__init__(step, start - 1)
        self._init = init

    # A method of its own: accumulator lookups are traced apart from the other
    # caches, and it beats _PrefixCache.at behind a step reading the previous
    # entry by position (wall_s tables 0.0290 vs 0.0304, grid 0.0913 vs 0.0968 reference s).
    def at(self, n: int, key=()):
        """A(n) of ``key``, filling the key's list up to it."""
        vals = self._data.get(key)
        j = n - self._start
        if vals is not None and 0 <= j < len(vals):
            return vals[j]
        if j < 0:
            raise ValueError(f"cache index {n} below start {self._start}")
        if vals is None:
            vals = self._data.setdefault(key, [self._init])
        step, start = self._step, self._start
        while (k := len(vals)) <= j:
            vals[k:k + 1] = (step(vals[k - 1], start + k, key),)
        return vals[j]


# The sequence tables, read by key: T_n(b,c), M_n(b,c) and W_n.  A checker or step builds
# its key (b, c) once; the public functions of ``sequences``, which check n >= 0 and pack
# (b, c) on every call, serve the API.  ``at`` raises below a table's start.
_t_at = seq._GEN_TRINOMIAL.at
_m_at = seq._GEN_MOTZKIN.at
_w_at = seq._MOTZKIN_ANALOG_W.at


# These steps unpack their key.  Lambdas that sliced it took 2.5 ms instead of
# 1.5 ms for COR-1.1.ab's two sums to n = 333 (Python 3.11, 2-vCPU VM).
def _msq_step(prev, n, key):
    b, c, e = key
    d, t = b * b - 4 * c, n * (n + 1) * (2 * n - 2 + e) * _m_at(n - 1, (b, c)) ** 2
    return d * prev[0] + t, t - d * prev[1]


def _s411_step(prev, n, key):
    b, c = key
    d, t = b * b - 4 * c, n * _t_at(n, key) * _t_at(n - 1, key)
    return d * prev[0] + t, d * prev[1] + n * n * t


def _e34_step(prev, n, _key):
    r = (2 * n + 1) * _T2_SUM.at(n, (1, -3))[0]
    return 3 * prev[0] + r, prev[1] + (16 * n * n - 30 * n + 21) * r


def _pow_step(prev, n, key):
    f, h, m = key
    term = f.at(n, h) ** m * (n * (n + 1) * (2 * n + 1))
    return prev[0] + term, (prev[1] - term if n % 2 else prev[1] + term)


# One running sum per sum of the paper, keyed by the constants that vary.  A
# MUT-* fixture runs its real claim's checker with the weight key e changed,
# and Corollary 1.1 runs Theorem 1.3's checkers at (b, c) = (3, 2), where
# d = 1, D_k = T_k(3,2) and s_k = M_(k-1)(3,2).
# sum_{k=1..n} (2k+e) M_k^2, keyed by e: the claims read e = 1, MUT-THM-1.1.i e = 2
_WSUM_M = _Acc(1, lambda prev, n, e: prev + (2 * n + e) * _m_at(n, (1, 1)) ** 2)
# sum_{k=0..n-1} k(k+1)(8k+e) T_k T_{k+1}, keyed by e: the claims read e = 9,
# MUT-THM-1.2 e = 10
_TT_SUM = _Acc(1, lambda prev, n, e: prev + (n - 1) * n * (8 * n - 8 + e)
               * _t_at(n - 1, (1, 1)) * _t_at(n, (1, 1)))
# T_n(-b, c) = (-1)^n T_n(b, c) and M_n(-b, c) = (-1)^n M_n(b, c), and d = b^2 - 4c
# does not see the sign of b, so the three (b, c)-sums below are even or odd in b and
# are keyed by |b|: the points at b and -b read one entry.
# sum_{k=0..n-1} (k+1)(k+2)(2k+e) M_k(b,c)^2 (sigma*d)^(n-1-k) for the pair sigma = (+1, -1),
# keyed (|b|, c, e), even in b; one term serves both signs.  THM-1.3.c/d read (|b|, c, 3),
# ID-1.8 the sigma = -1 half at (1, 1, 3), COR-1.1.c/d (3, 2, 3) and MUT-ID-1.8 the -1
# half at (1, 1, 4)
_MSQ_SUM = _Acc(1, _msq_step, init=(0, 0))
# sum_{k=0..n-1} (2k+1) T_k(b,c)^2 (-d)^(n-1-k), with -d = 4c - b^2, keyed (|b|, c), even in b
_S31 = _Acc(1, lambda prev, n, key: (4 * key[1] - key[0] ** 2) * prev
            + (2 * n - 1) * _t_at(n - 1, key) ** 2)
# sum_{k=1..n} k^(2*delta+1) T_k T_{k-1} d^(n-k) for the pair delta = (0, 1), keyed (|b|, c),
# odd in b: the sum at b < 0 is minus the entry.  One product k*T_k*T_(k-1) serves both
# halves.  THM-1.3.a reads delta = 0, THM-1.3.b delta = 1, COR-1.1.ab both at (3, 2) and
# EQ-4.11 the half of its delta
_S411 = _Acc(1, _s411_step, init=(0, 0))
# sum_{k=0..n-1} (alpha*k+beta) W_k^2, keyed (alpha, beta): CONJ-5.1.a/b read
# (8, 9) and REM-5.1 (0, 1)
_WSUM_W = _Acc(1, lambda prev, n, key: prev
               + (key[0] * (n - 1) + key[1]) * _w_at(n - 1) ** 2)
# double sum of F(k, l) from the (2k+1)M_k^2 telescoping, one integer row per k
_E28_LHS = _Acc(0, lambda prev, n, _: prev + _e28_row(n))
# EQ-3.4's double sum_{k=0..n} (2k+1)(3^(n-k) c(n) - c(k)) R_k, c(m) = 16m^2-30m+21 and R_k
# LEM-3.1.b's row k at (c, d) = (1, -3), is c(n) U(n) - V(n) for the pair of
# U(n) = 3U(n-1) + (2n+1)R_n and V(n) = V(n-1) + (2n+1)c(n)R_n
_E34_LHS = _Acc(0, _e34_step, init=(0, 0))
# sum_{k=1..n} k(k+1)(2k+1) f_k(x)^m and the same with signs (-1)^k, one power for both, keyed
# (f, h, m) for f read as f.at(k, h): _W_POLY or _BIG_S_POLY by the exponent h, _S_POLY with h = ()
_POW_SUM = _Acc(1, _pow_step, init=(ZERO, ZERO))
# The triangle partial sums, keyed by j and indexed by m.  Their terms with
# k < j vanish, so every key starts at the same m.
# sum_{k=j..m-1} (-1)^(m-1-k) (2k+1) C(k+j, 2j): EQ-4.2
_S42 = _Acc(1, lambda prev, m, j: -prev + (2 * m - 1) * comb(m - 1 + j, 2 * j))
# sum_{k=j+1..m} k^(2 delta) (k-j) C(k+j, 2j), keyed (j, delta): EQ-4.10
_S410 = _Acc(1, lambda prev, m, key: prev
             + m ** (2 * key[1]) * (m - key[0]) * comb(m + key[0], 2 * key[0]))
# sum_{k=j..m} (2k+1) C(k+j, 2j): EQ-4.12
_S412 = _Acc(0, lambda prev, m, j: prev + (2 * m + 1) * comb(m + j, 2 * j))
# sum_{k=j+1..m} (k-1)(8k+1) 3^(k-1-j), 0 for m <= j: EQ-3.partial
_S3P = _Acc(1, lambda prev, m, j: prev + (m - 1) * (8 * m + 1) * 3 ** (m - 1 - j) if m > j else 0)


# polynomial families by index n (w and S keyed by the exponent h)
_S_POLY = seq._PrefixCache(lambda _prefix, n, _key: s_poly(n), start=1)
_W_POLY = seq._PrefixCache(lambda _prefix, n, h: w_poly(n, h), start=1)
_BIG_S_POLY = seq._PrefixCache(lambda _prefix, n, h: big_schroder_poly(n, h))
_XP1 = Poly((1, 1))


def _a_coeff(n: int, k: int) -> int:
    """Quadratic-in-k weight used by the T_k T_{k+1} closed forms."""
    return (4 * k * k * n * n - 8 * k * n ** 3 - 14 * k * k * n - 14 * k * n * n
            - 4 * n ** 3 + 13 * k * k - 11 * k * n - 26 * n * n + 39 * k + 4 * n + 26)


def _hom_eval(weights: Iterable[int], c, d):
    """sum_j w_j c^j d^(m-j) over the integer weights w_0..w_m by homogeneous Horner."""
    acc, cj = 0, 1
    for w in weights:
        acc = acc * d + w * cj
        cj *= c
    return acc


def _ratio_row(t: int, ks: Iterable[int], ratio):
    """The terms t_k for k in ks, t_(k+1) = t_k * num // den with (num, den) = ratio(k) (A = B,
    ch. 3).  The numerator is multiplied first and carries the sign, so each division is exact."""
    for k in ks:
        yield t
        num, den = ratio(k)
        t = t * num // den


# coefficient rows of the (b, c)-sums, keyed by n alone; the sums below evaluate them at (c, d):
# C(n+j,2j)C(2j,j)^2 for j = 0..n, and C(n+k+1,2k)C(2k,k)C(2k,k+1) for k = 1..n+1
_T2_ROW = seq._PrefixCache(lambda _prefix, n, _key: tuple(_ratio_row(  # LEM-3.1.b, LEM-4.1, EQ-3.4
    1, range(n + 1), lambda j: ((n + j + 1) * (n - j) * (4 * j + 2), (j + 1) ** 3))))
_M2_ROW = seq._PrefixCache(lambda _prefix, n, _key: tuple(_ratio_row(  # REM-2.1, EQ-2.8, LEM-2.1.a
    (n + 1) * (n + 2), range(1, n + 2),
    lambda k: ((n + k + 2) * (n - k + 1) * (4 * k + 2), k * (k + 1) * (k + 2)))))
# EQ-4.11, keyed by delta: entry j < n is (n(n+1))^(delta+1) C(n-1,j)C(n+j+1,j)C(2j,j)/(j+delta+1)
_EQ411_ROW = seq._PrefixCache(lambda _prefix, n, delta: tuple(_ratio_row(
    (n * (n + 1)) ** (delta + 1) // (delta + 1), range(n),
    lambda j: ((n - 1 - j) * (n + j + 2) * (4 * j + 2) * (j + delta + 1),
               (j + 1) ** 3 * (j + delta + 2)))), start=1)
# LEM-4.4.b: entry k-1 is sum_j C(n-j,k-j) (-1)^(k-j) w(n,j) (LEM-4.4.a reads s_n)
_W_INVERSE_ROW = seq._PrefixCache(lambda _prefix, n, _key: tuple(_binomial_transform(
    _W_POLY.at(n, 1).coeffs, -1)), start=1)


def _t2_sum_step(_prefix, n, key):
    """LEM-3.1.b's sum S = sum_j row_j c^j d^(n-j) and dS/dd from one Horner pass in d: der
    steps by acc just before acc steps (Knuth, TAOCP vol. 2, 4.6.4)."""
    c, d = key
    acc = der = 0
    cj = 1
    for w in _T2_ROW.at(n):
        der = der * d + acc
        acc = acc * d + w * cj
        cj *= c
    return acc, der


def _eq411_step(_prefix, n, key):
    """EQ-4.11's sums at delta = 0 and 1, one homogeneous Horner pass over both rows in step."""
    c, d = key
    acc0, acc1, cj = 0, 0, 1
    for w0, w1 in zip(_EQ411_ROW.at(n, 0), _EQ411_ROW.at(n, 1)):
        acc0 = acc0 * d + w0 * cj
        acc1 = acc1 * d + w1 * cj
        cj *= c
    return acc0, acc1


# The (b, c)-sums by row n, keyed (c, d) with d = b^2 - 4c: no value reads b, so b and -b
# read one entry.  LEM-3.1.b reads S, LEM-4.1 b*dS/dd, EQ-3.4 S at (1, -3)
_T2_SUM = seq._PrefixCache(_t2_sum_step)
# REM-2.1, and EQ-2.8's rows at (1, -3)
_M2_SUM = seq._PrefixCache(lambda _prefix, n, key: _hom_eval(_M2_ROW.at(n), *key))
# EQ-4.11, twice its closed form over b, as the pair delta = (0, 1)
_EQ411_SUM = seq._PrefixCache(_eq411_step, start=1)


def _e28_row(k: int) -> int:
    """sum_l F(k, l) = (2k+1)/((k+1)(k+2)) sum_l C(k+l+2,2l+2)C(2l+2,l+1)C(2l+2,l)(-3)^(k-l).
    The sum is REM-2.1's sum k at (c, d) = (1, -3), (k+1)(k+2)M_k^2, so the division is exact."""
    q, r = divmod(_M2_SUM.at(k, (1, -3)), (k + 1) * (k + 2))
    if r:
        raise NonIntegral(f"EQ-2.8 row {k}: remainder {r}", r)
    return (2 * k + 1) * q


# ---------------------------------------------------------------------------
# Point outcome helpers
# ---------------------------------------------------------------------------

_OK = ("ok", None)  # a verified point without a derived value; the engine tests it by identity


def _ok(derived):
    return ("ok", derived)


def _fail(lhs, rhs):
    return ("fail", str(lhs), str(rhs))


def _fraction_digits(x: Fraction) -> str:
    """str(x), with its numerator and denominator printed by _digits."""
    num, den = x.numerator, x.denominator
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def _divides(value: int, divisor: int):
    """Divisibility with the 0 | x convention (only 0 is divisible by 0)."""
    rem = value % divisor if divisor else value
    return rem == 0, rem


@dataclass(frozen=True)
class Skip:
    point: object
    reason: str


# ---------------------------------------------------------------------------
# Point grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """A claim's domain: the coordinate names of its points, the
    ``ParamRange`` fields its points are built from (the range a report
    echoes), and the function that builds them."""
    names: tuple[str, ...]
    keys: tuple[str, ...]
    points: Callable[[ParamRange], Iterable]


def _n_points(lo: int = 1) -> Grid:
    return Grid(("n",), ("n_max",), lambda rng: range(lo, rng.n_max + 1))


def _prime_points() -> Grid:  # primes p > 3
    return Grid(("p",), ("prime_lo", "prime_hi"),
                lambda rng: modular.primes_in(max(rng.prime_lo, 5), rng.prime_hi))


def _grid_points(*, d_nonzero: bool = False, b_nonzero: bool = False, n_lo: int = 1,
                 deltas: tuple[int, ...] | None = None, index: str = "n") -> Grid:
    def runs(rng: ParamRange):  # a skip, or the points of one (b, c[, delta]) by n
        for b in rng.b_set:
            for c in rng.c_set:
                if b_nonzero and b == 0:
                    yield (Skip({"b": b, "c": c}, "requires b != 0"),)
                elif d_nonzero and b * b - 4 * c == 0:
                    yield (Skip({"b": b, "c": c}, "requires d = b^2 - 4c != 0"),)
                elif deltas is None:
                    yield zip(repeat(b), repeat(c), range(n_lo, rng.n_max + 1))
                else:
                    for delta in deltas:
                        yield zip(repeat(b), repeat(c), repeat(delta), range(n_lo, rng.n_max + 1))
    names = ("b", "c", index) if deltas is None else ("b", "c", "delta", index)
    return Grid(names, ("n_max", "b_set", "c_set"), lambda rng: chain.from_iterable(runs(rng)))


def _triangle_points(*, strict: bool = True, deltas=None) -> Grid:
    """(j, m) pairs with 0 <= j < m <= n_max (or j <= m when not strict)."""
    def points(rng: ParamRange):
        for m in range(1 if strict else 0, rng.n_max + 1):
            for j in range(m if strict else m + 1):
                if deltas is None:
                    yield (j, m)
                else:
                    for delta in deltas:
                        yield (delta, j, m)
    return Grid(("j", "m") if deltas is None else ("delta", "j", "m"), ("n_max",), points)


def _nk_points() -> Grid:
    def points(rng: ParamRange):
        for n in range(1, rng.n_max + 1):
            for k in range(1, n + 1):
                yield (n, k)
    return Grid(("n", "k"), ("n_max",), points)


def _exponent_points(*, a_lo: int, even: bool) -> Grid:
    """(a, b, n) with a_lo <= a <= qexp_a_max, b <= qexp_b_max (a + b even if asked)."""
    def points(rng: ParamRange):
        for a in range(a_lo, rng.qexp_a_max + 1):
            for bexp in range(0, rng.qexp_b_max + 1):
                if even and (a + bexp) % 2:
                    continue
                for n in range(1, rng.n_max + 1):
                    yield (a, bexp, n)
    return Grid(("a", "b", "n"), ("n_max", "qexp_a_max", "qexp_b_max"), points)


# ---------------------------------------------------------------------------
# Checkers: theorems and corollaries
# ---------------------------------------------------------------------------

def _check_thm_1_1_i(point, e=1):
    n = point
    total = 2 * _WSUM_M.at(n, e)
    q, rem = divmod(total, n)
    if rem:
        return _fail(f"2*sum = {_digits(total)} = {rem} (mod {n})", "0 (mod n)")
    return _ok(q)


def _check_thm_1_1_ii(point):
    p = point
    total = 1 + _WSUM_M.at(p - 1, 1)  # k = 0 contributes 1 * M_0^2
    rhs = 12 * p * modular.legendre(p, 3)
    if (total - rhs) % (p * p):
        return _fail(f"sum = {total % (p * p)} (mod p^2)", f"12p(p/3) = {rhs % (p * p)} (mod p^2)")
    return _OK


def _check_thm_1_2(point, e=9):
    n = point
    total = _TT_SUM.at(n, e)
    divisor = n * n * (n * n - 1) // 6  # 6 divides (n-1)n(n+1)
    q, rem = divmod(total, divisor) if divisor else (None, total)  # 0 | x only for x = 0
    if rem:
        return _fail(f"sum = {_digits(total)} = {rem} (mod {divisor})", "0 (mod n^2(n^2-1)/6)")
    return _ok(q)


# The divisors of Theorem 1.3.a/b hold |b|, and their sums are odd in b, so a point
# at b < 0 divides the |b| entry; only a refuted one negates it, so that its witness
# prints the sum at b.
def _check_thm_1_3_a(point):
    b, c, n = point
    ab = abs(b)
    total = _S411.at(n, (ab, c))[0]
    divisor = ab * (n * (n + 1) // 2)
    ok, rem = _divides(total, divisor)
    if not ok:
        if b < 0:
            total, rem = -total, -total % divisor
        return _fail(f"sum = {_digits(total)} = {rem} (mod {divisor})", "0 (mod b*n(n+1)/2)")
    return _OK


def _check_thm_1_3_b(point):
    b, c, n = point
    ab = abs(b)
    total = 3 * _S411.at(n, (ab, c))[1]
    divisor = ab * (n * (n + 1) // 2) ** 2
    ok, rem = _divides(total, divisor)
    if not ok:
        if b < 0:
            total, rem = -total, -total % divisor
        return _fail(f"3*sum = {_digits(total)} = {rem} (mod {divisor})", "0 (mod b*n^2(n+1)^2/4)")
    return _OK


def _check_thm_1_3_c(point):
    b, c, n = point
    total = gcd(2, n) * _MSQ_SUM.at(n, (abs(b), c, 3))[0]
    divisor = n * (n + 1) * (n + 2)
    ok, rem = _divides(total, divisor)
    if not ok:
        return _fail(f"gcd(2,n)*sum = {_digits(total)} = {rem} (mod {divisor})",
                     "0 (mod n(n+1)(n+2))")
    return _OK


def _check_thm_1_3_d(point, e=3):
    b, c, n = point
    key = b, c
    mm = _m_at(n, key) * _m_at(n - 1, key)
    if mm % abs(b):
        return _fail(f"M_n*M_(n-1) = {_digits(mm)}", f"0 (mod b = {b})")
    lhs = b * _MSQ_SUM.at(n, (abs(b), c, e))[1]
    rhs = n * (n + 1) * (n + 2) * mm
    if lhs != rhs:
        return _fail(f"b*alt-sum = {_digits(lhs)}", f"n(n+1)(n+2)*M_n*M_(n-1) = {_digits(rhs)}")
    return _OK


def _check_cor_1_1_ab(n):  # Theorem 1.3.a, then 1.3.b, at (b, c) = (3, 2)
    outcome = _check_thm_1_3_a((3, 2, n))
    return outcome if outcome[0] == "fail" else _check_thm_1_3_b((3, 2, n))


# ---------------------------------------------------------------------------
# Checkers: polynomial identities
# ---------------------------------------------------------------------------

def _check_id_2_3(point):
    n = point
    lhs = _BIG_S_POLY.at(n, 1)
    rhs = _XP1 * _S_POLY.at(n)
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _check_lem_2_1_a(point):
    n = point
    lhs = _S_POLY.at(n) * _S_POLY.at(n) * (n * (n + 1))
    # REM-2.1's row n-1 at (c, d) = (x(x+1), 1): row[k-1] is the coefficient of y^(k-1)
    rhs = Poly(_expand_in_y(_M2_ROW.at(n - 1)))
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _check_rem_2_1(point):
    b, c, n = point
    lhs = (n + 1) * (n + 2) * _m_at(n, (b, c)) ** 2
    rhs = _M2_SUM.at(n, (c, b * b - 4 * c))
    if lhs != rhs:
        return _fail(f"(n+1)(n+2)*M_n^2 = {_digits(lhs)}", f"sum = {_digits(rhs)}")
    return _OK


def _lem_2_2_sum(n: int) -> int:
    """LEM-2.2's single sum_{k=0..n+1} (4n-2k+3)(n+k+2)C(n+k+1,2k)C(2k,k)C(2k+1,k)(-3)^(n+1-k),
    each term (k+1)C(n+k+2,2k+1)C(2k+1,k)^2 from the one before.  Term k >= 1 is n+2 times
    EQ-2.8's factorial term j = k-1, (n+j+3)!(2j+3)!/((n-j)!(j+2)(j+1)!^4)."""
    return _hom_eval(((4 * n - 2 * k + 3) * t for k, t in enumerate(_ratio_row(n + 2, range(n + 2),
        lambda k: ((n + k + 3) * (n - k + 1) * (4 * k + 6), (k + 1) ** 2 * (k + 2))))), 1, -3)


def _check_lem_2_2(point):
    n = point
    lhs = (n + 2) * _WSUM_M.at(n, 1)
    rhs = _lem_2_2_sum(n)
    if lhs != rhs:
        return _fail(f"(n+2)*sum(2k+1)M_k^2 = {_digits(lhs)}", f"single sum = {_digits(rhs)}")
    return _OK


def _check_eq_2_8(point):
    n = point
    lhs = _E28_LHS.at(n)
    total = _lem_2_2_sum(n)
    if (n + 2) * (lhs - 1) != total:
        return _fail(f"double sum = {_digits(lhs)}",
                     f"telescoped form = {_fraction_digits(1 + Fraction(total, n + 2))}")
    return _OK


class CheckerDisagreement(RuntimeError):
    """Two independent computations of one verdict disagree: a fault in the
    verifier, which must end the run as an internal error, not a refutation."""


def _lucas_remainder(n: int, d: int, a: int, bexp: int, weight_shift: int) -> list[int]:
    """For d | n, d > 1: the d coefficients of a residue mod q^d - 1, all zero
    exactly when Phi_d divides LEM-2.3's sum (q-Lucas).

    With k = jd + r and m = n/d, mod Phi_d the k-th term is
    c_j [1 r]^a [2r r] [(r+w) mod d]_q (-[3]_q)^(n-1-k), with one integer
    c_j = C(m, j)^a C(m+j, j)^b C(2j, j) per block j; only r < d/2, and
    r <= 1 for a >= 1, leave [2r r] and [1 r]^a nonzero.  The sum is formed
    by Horner in -[3]_q over the terms nonzero at q = 1 only, as one packed
    residue reduced mod 2^(dB) - 1 (see _Packed): a gap g between terms is
    one product by (-[3]_q)^g.  Only the read-back needs a bound on the
    coefficients, and the unsigned sum at q = 1 is one.  The residue read
    back is multiplied by prod_{p | d prime} (q^(d/p) - 1), one rotation and
    subtraction per p.  q^d - 1 is squarefree and the product vanishes at
    its roots but the primitive d-th ones, the roots of Phi_d."""
    m, terms, bound, last = n // d, [], 0, 0  # terms: (k, c_j, r, (r+w) mod d), nonzero at q = 1
    for j in range(m):
        c = comb(m, j) ** a * comb(m + j, j) ** bexp * comb(2 * j, j)
        for r in range(min((d + 1) // 2, 2 if a else d)):
            k, s = j * d + r, (r + weight_shift) % d
            if s:
                terms.append((k, c, r, s))
                bound = bound * 3 ** (k - last) + c * comb(2 * r, r) * s
                last = k
    ring = _Packed(d, bound * 3 ** (n - 1 - last))
    M, neg_three, shapes = ring.mask, -ring.q_integer(3), {}
    acc = last = 0
    for k, c, r, s in terms + [(n - 1, 0, 0, 0)]:  # the last step only multiplies
        if acc:
            acc = acc * pow(neg_three, k - last, M) % M
        if c:
            if r not in shapes:
                shapes[r] = ring.mul(ring.pack(_fold(q_binomial(2 * r, r).coeffs, d)),
                                     ring.q_integer(s))
            acc = (acc + c * shapes[r]) % M
        last = k
    acc = ring.coeffs(acc)
    for s in [d // p for p in range(2, d + 1) if d % p == 0 and modular.is_prime(p)]:
        acc = [x - y for x, y in zip(acc[-s:] + acc[:-s], acc)]
    return acc


def _q_divides_2_9(n: int, a: int, bexp: int, weight_shift: int) -> bool:
    """Whether [n]_q = prod_{d | n, d > 1} Phi_d divides LEM-2.3's sum."""
    return not any(any(_lucas_remainder(n, d, a, bexp, weight_shift))
                   for d in range(2, n + 1) if n % d == 0)


def _lem_2_3_row(n: int, a: int, bexp: int):  # LEM-2.3's C(n+1,k)^a C(n+k,k)^b C(2k,k) at q = 1
    return _ratio_row(1, range(n), lambda k: (
        (n + 1 - k) ** a * (n + k + 1) ** bexp * (4 * k + 2), (k + 1) ** (a + bexp + 1)))


def _q_sum_2_9(n: int, a: int, bexp: int, weight_shift: int) -> list[int]:
    """sum_{k=0..n-1} [n+1 k]^a [n+k k]^b [2k k] [k+w]_q (-[3]_q)^(n-1-k),
    folded mod q^n - 1: the n coefficients of its residue, for the text of a
    refuted point.

    Each term_k is formed packed (see _Packed), from the q-Pascal rows of
    _packed_q_pascal_rows.  Every factor has nonnegative coefficients, so
    the value at q = 1 of anything formed is at most U, the largest term at
    q = 1.  U also bounds every row entry, C(2n-1, n-1) at most: for w >= 2
    the term k = n-1 alone is at least (n+1) C(2n-2, n-1), which exceeds
    C(2n-1, n-1) = (2n-1)/n C(2n-2, n-1).  The powers of -[3]_q are signed
    and come from Horner's rule on the read-back terms,
    acc = acc*(-[3]_q) + term_k."""
    bound = max((k + weight_shift) * t for k, t in enumerate(_lem_2_3_row(n, a, bexp)))
    ring = _Packed(n, bound)
    terms, upper, lower = [], None, []
    for m, row in enumerate(_packed_q_pascal_rows(ring, max(2 * n - 1, n + 1))):
        if m % 2 == 0 and m // 2 < n:
            k = m // 2
            terms.append(ring.mul(ring.q_integer(k + weight_shift), row[k]))
        if n <= m < 2 * n:
            lower.append(row[m - n])
        if m == n + 1:
            upper = row
    neg_q3 = -q_integer(3)
    acc = [0] * n
    for k, (term, bottom) in enumerate(zip(terms, lower)):
        for _ in range(bexp):
            term = ring.mul(term, bottom)
        for _ in range(a):
            term = ring.mul(term, upper[k])
        acc = [x + t for x, t in zip(_fold((Poly(acc) * neg_q3).coeffs, n), ring.coeffs(term))]
    return acc


def _packed_q_pascal_rows(ring: _Packed, m_max: int):
    """Rows m = 0..m_max of the q-Pascal triangle mod q^n - 1, packed: row m
    maps k to [m k]_q for k = 0 and for max(1, m-n) <= k <= min(m, n-1).

    Built by [m k] = [m-1 k-1] + q^k [m-1 k], where q^k is a rotation.  The
    cone k >= m - n holds every entry that [n+k k] (k < n) is built from."""
    n = ring.n
    row = {0: 1}
    yield row
    for m in range(1, m_max + 1):
        nxt = {0: 1}
        for k in range(max(1, m - n), min(m, n - 1) + 1):
            nxt[k] = row[k - 1] + ring.rotate(row[k], k) if k < m else 1  # [m m] = 1
        row = nxt
        yield row


def _mod_q_integer(residue: list[int]) -> Poly:
    """P mod [n]_q from the residue r of P mod q^n - 1.  [n]_q is monic and
    divides q^n - 1, so P mod [n]_q = sum_{i<n-1} (r_i - r_(n-1)) q^i."""
    return Poly([r - residue[-1] for r in residue[:-1]])


def _check_lem_2_3(point, weight_shift=2, label="sum"):
    """Decide a point by q-Lucas; a refuted one takes its witness text from
    the fold mod q^n - 1, which must refute it too."""
    a, bexp, n = point
    if _q_divides_2_9(n, a, bexp, weight_shift):
        return _OK
    remainder = _mod_q_integer(_q_sum_2_9(n, a, bexp, weight_shift))
    if not remainder:
        raise CheckerDisagreement(
            f"q-Lucas refutes (n, a, b, w) = {(n, a, bexp, weight_shift)}, "
            "but the sum folded mod q^n - 1 leaves remainder 0 mod [n]_q")
    return _fail(f"{label} mod [n]_q = {remainder.render('q')}", "0")


def _lem_2_4_residue(p: int) -> int:
    """sum_{k=1..p-1} C(2k,k)/(k*3^k) mod p (p > 3 prime) as one running
    fraction num/den mod p, inverted once at the end.  g = C(2k,k)/3^k steps by
    2(2k-1)/(3k); C(2k,k) is 0 mod p from k = (p+1)/2 on, once the factor
    2k-1 = p enters, so the sum stops there."""
    num, den, g_num, g_den = 0, 1, 1, 1
    for k in range(1, (p + 1) // 2):
        g_num = g_num * 2 * (2 * k - 1) % p
        g_den = g_den * 3 * k % p
        t_den = g_den * k % p
        num = (num * t_den + g_num * den) % p
        den = den * t_den % p
    return num * pow(den, -1, p) % p


def _check_lem_2_4(point):
    p = point
    acc, rhs = _lem_2_4_residue(p), modular.fermat_quotient(3, p)
    if acc != rhs:
        return _fail(f"sum C(2k,k)/(k*3^k) = {acc} (mod p)", f"(3^(p-1)-1)/p = {rhs} (mod p)")
    return _OK


def _eq_2_11_sum(n: int) -> int:
    """sum_{k<n} C(n+1,k)C(n+k,k)C(2k,k)(k+2)(-3)^(n-1-k): LEM-2.3's sum at q = 1, a = b = 1."""
    return _hom_eval(((k + 2) * t for k, t in enumerate(_lem_2_3_row(n, 1, 1))), 1, -3)


def _check_eq_2_11(point):
    n = point
    lhs = 2 * _WSUM_M.at(n, 1)
    rhs = 27 * _eq_2_11_sum(n)
    if (lhs - rhs) % n:
        return _fail(f"2*sum = {lhs % n} (mod {n})", f"27*sum = {rhs % n} (mod {n})")
    return _OK


# ---------------------------------------------------------------------------
# Checkers: the LEM-3.x / EQ-3.x family
# ---------------------------------------------------------------------------

def _check_lem_3_1_a(point):
    b, c, n = point
    key = b, c
    lhs = b * _S31.at(n, (abs(b), c))
    rhs = n * _t_at(n, key) * _t_at(n - 1, key)
    if lhs != rhs:
        return _fail(f"b*alt-sum = {_digits(lhs)}", f"n*T_n*T_(n-1) = {_digits(rhs)}")
    return _OK


def _check_lem_3_1_b(point):
    b, c, k = point
    lhs = _t_at(k, (b, c)) ** 2
    rhs = _T2_SUM.at(k, (c, b * b - 4 * c))[0]
    if lhs != rhs:
        return _fail(f"T_k^2 = {_digits(lhs)}", f"sum = {_digits(rhs)}")
    return _OK


def _lem_3_sum(n: int, a: int, b: int, weight) -> int:
    """sum_{k<n} C(n-1,k)^a C(-n-1,k)^b Cat_k weight(n,k) 3^(n-1-k), each term from the one
    before; LEM-3.4 reads it at weight (k+1)(k+2), since C(2k,k) = (k+1)Cat_k."""
    return _hom_eval((weight(n, k) * t for k, t in enumerate(_ratio_row(1, range(n), lambda k: (
        (n - 1 - k) ** a * (-n - 1 - k) ** b * (4 * k + 2), (k + 1) ** (a + b) * (k + 2))))), 1, 3)


def _sum_3_3(n: int) -> int:
    return _lem_3_sum(n, 1, 1, _a_coeff)


def _check_lem_3_2(point):
    n = point
    lhs = 6 * _TT_SUM.at(n, 9)
    rhs = (-1) ** n * n * _sum_3_3(n)
    if lhs != rhs:
        return _fail(f"6*sum k(k+1)(8k+9)T_k*T_(k+1) = {_digits(lhs)}",
                     f"closed form = {_digits(rhs)}")
    return _OK


def _check_lem_3_3(point):
    n = point
    ok, rem = _divides(_sum_3_3(n), n * n - 1)
    if not ok:
        return _fail(f"sum = {rem} (mod {n * n - 1})", "0 (mod n^2-1)")
    return _OK


def _check_eq_3_partial(point):
    j, m = point
    lhs = 4 * _S3P.at(m, j)
    rhs = 3 ** (m - j) * (16 * m * m - 30 * m + 21) - (16 * j * j - 30 * j + 21)
    if lhs != rhs:
        return _fail(f"4*partial sum = {_digits(lhs)}", f"closed form = {_digits(rhs)}")
    return _OK


def _check_eq_3_4(point):
    n = point
    u, v = _E34_LHS.at(n)
    lhs = (16 * n * n - 30 * n + 21) * u - v
    # its factorial single sum is 3(-1)^n n times LEM-3.2's, term by term
    total = (-1) ** n * n * _sum_3_3(n)
    if 3 * lhs != 2 * total:
        return _fail(f"double sum = {_digits(lhs)}",
                     f"telescoped form = {_fraction_digits(Fraction(2 * total, 3))}")
    return _OK


def _check_lem_3_4(point):
    a, bexp, n = point
    ok, rem = _divides(_lem_3_sum(n, a, bexp, lambda _n, k: (k + 1) * (k + 2)), 2 * n)
    if not ok:
        return _fail(f"sum = {rem} (mod {2 * n})", "0 (mod 2n)")
    return _OK


# ---------------------------------------------------------------------------
# Checkers: the LEM-4.x / EQ-4.x family
# ---------------------------------------------------------------------------

def _check_lem_4_1(point):
    b, c, n = point
    key = b, c
    lhs = n * _t_at(n, key) * _t_at(n - 1, key)
    rhs = b * _T2_SUM.at(n, (c, b * b - 4 * c))[1]
    if lhs != rhs:
        return _fail(f"n*T_n*T_(n-1) = {_digits(lhs)}", f"b*sum = {_digits(rhs)}")
    return _OK


def _check_eq_4_2(point):
    j, m = point
    lhs = _S42.at(m, j)
    rhs = (m - j) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"alt partial sum = {_digits(lhs)}", f"(m-j)*C(m+j,2j) = {_digits(rhs)}")
    return _OK


def _check_lem_4_2(point):
    n, k = point
    value = (n + k + 1) * comb(n + k, k) * comb(n + 1, k + 1) * comb(2 * k, k + 1)
    divisor = n * (n + 1) * (n + 2) // gcd(2, n)
    ok, rem = _divides(value, divisor)
    if not ok:
        return _fail(f"product = {rem} (mod {divisor})", "0 (mod n(n+1)(n+2)/gcd(2,n))")
    return _OK


def _check_lem_4_3(point):
    n = point
    ok, rem = _divides(6 * comb(2 * n, n), n + 2)
    if not ok:
        return _fail(f"6*C(2n,n) = {rem} (mod {n + 2})", "0 (mod n+2)")
    return _OK


def _check_lem_4_4_a(point):
    n, k = point
    lhs = seq.w_coeff(n, k)
    rhs = _S_POLY.at(n).coeffs[k - 1]
    if lhs != rhs:
        return _fail(f"w(n,k) = {_digits(lhs)}", f"binomial transform of N(n,*) = {_digits(rhs)}")
    return _OK


def _check_lem_4_4_b(point):
    n, k = point
    lhs = seq.narayana(n, k)
    rhs = _W_INVERSE_ROW.at(n)[k - 1]
    if lhs != rhs:
        return _fail(f"N(n,k) = {_digits(lhs)}", f"inverse transform of w(n,*) = {_digits(rhs)}")
    return _OK


def _check_lem_4_5(point):
    n = point
    lhs = _W_POLY.at(n, 1)
    rhs = _S_POLY.at(n)
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _check_lem_4_6(point):
    n = point
    lhs = Poly((1, 2)) * _POW_SUM.at(n, (_W_POLY, 1, 2))[1] * (-1) ** n
    rhs = _W_POLY.at(n, 1) * _W_POLY.at(n + 1, 1) * (n * (n + 1) * (n + 2))
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _check_rec_w(point):
    n = point
    lhs = _W_POLY.at(n + 2, 1) * (n + 3)
    rhs = Poly((1, 2)) * (2 * n + 3) * _W_POLY.at(n + 1, 1) - _W_POLY.at(n, 1) * n
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _check_eq_4_10(point):
    delta, j, m = point
    lhs = 2 * (j + delta + 1) * _S410.at(m, (j, delta))
    rhs = m ** delta * (m + 1) ** delta * (m - j) * (m + j + 1) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"2(j+d+1)*partial sum = {_digits(lhs)}", f"closed form = {_digits(rhs)}")
    return _OK


def _check_eq_4_11(point):
    b, c, delta, n = point
    ab = abs(b)
    lhs = _S411.at(n, (ab, c))[delta]  # the sum at |b|, odd in b
    total = ab * _EQ411_SUM.at(n, (c, b * b - 4 * c))[delta]  # twice the closed form at |b|
    if 2 * lhs != total:
        if b < 0:  # the witness prints both sides at b
            lhs, total = -lhs, -total
        return _fail(f"weighted T-sum = {_digits(lhs)}",
                     f"closed form = {_fraction_digits(Fraction(total, 2))}")
    return _OK


def _check_eq_4_12(point):
    j, m = point
    lhs = (j + 1) * _S412.at(m, j)
    rhs = (m + 1) * (m + j + 1) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"(j+1)*partial sum = {_digits(lhs)}", f"closed form = {_digits(rhs)}")
    return _OK


def _check_eq_4_13(point):
    n = point
    lhs = _POW_SUM.at(n, (_S_POLY, (), 2))[0]
    # row k = 1..n: (n+k+1)C(n+1,k+1)C(n+k,k)C(2k,k+1)
    rhs = Poly(_expand_in_y(tuple(_ratio_row(n * (n + 1) ** 2 * (n + 2) // 2, range(1, n + 1),
        lambda k: ((n + k + 2) * (n - k) * (4 * k + 2), k * (k + 2) ** 2)))))
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _OK


def _lem_2_1_b_pair(b: int, d: int, n: int) -> tuple[int, int]:
    """2^n*y^n*s_(n+1)(x) at x = (b - y)/(2y) as u + v*y in Z[y]/(y^2 - d).

    It is sum_k a_k (b - y)^k (2y)^(n-k) over the coefficients a_k of
    s_(n+1), evaluated by homogeneous Horner from the top coefficient down;
    (zu, zv) is the running power (2y)^(n-k)."""
    u = v = 0
    zu, zv = 1, 0
    for a in reversed(_S_POLY.at(n + 1).coeffs):
        u, v = u * b - v * d + a * zu, v * b - u + a * zv
        zu, zv = 2 * d * zv, 2 * zu
    return u, v


def _check_lem_2_1_b(point):
    b, c, n = point
    d = b * b - 4 * c
    u, v = _lem_2_1_b_pair(b, d, n)
    target = _m_at(n, (b, c)) << n
    if v != 0 or u != target:
        return _fail(f"2^n*sqrt(d)^n*s_(n+1)(x) = {_digits(u)} + {_digits(v)}*sqrt({d})",
                     f"2^n*M_n(b,c) = {_digits(target)}")
    return _OK


# ---------------------------------------------------------------------------
# Checkers: the W sequence and the integrality conjectures
# ---------------------------------------------------------------------------

def _check_rec_W(point):
    n = point
    w = [_w_at(n + i) for i in range(4)]
    lhs = (n + 3) * w[3]
    rhs = (3 * n + 7) * w[2] + (n - 5) * w[1] - 3 * (n + 1) * w[0]
    if lhs != rhs:
        return _fail(f"(n+3)W_(n+3) = {_digits(lhs)}", f"recurrence rhs = {_digits(rhs)}")
    return _ok(w[0])


def _check_conj_5_1_a(point):
    n = point
    total = _WSUM_W.at(n, (8, 9))
    if total % (2 * n) != n % (2 * n):
        return _fail(f"sum = {total % (2 * n)} (mod {2 * n})", f"n = {n % (2 * n)} (mod 2n)")
    return _OK


def _check_conj_5_1_b(point):
    p = point
    total = _WSUM_W.at(p, (8, 9))
    if total % p:
        return _fail(f"sum = {_digits(total)}", f"0 (mod p = {p}); p must divide the sum")
    quotient = total // p
    rhs = (24 + 10 * modular.legendre(-1, p) - 9 * modular.legendre(p, 3)
           - 18 * modular.legendre(3, p))
    if (quotient - rhs) % (p * p):
        return _fail(f"(sum/p) = {quotient % (p * p)} (mod p^2)",
                     f"symbol side = {rhs % (p * p)} (mod p^2)")
    return _OK


def _check_rem_5_1(point):
    p = point
    total = _WSUM_W.at(p, (0, 1))
    if total % p != 2 % p:
        return _fail(f"sum W_k^2 = {total % p} (mod {p})", "2 (mod p)")
    return _OK


def _integrality_witness(poly: Poly, g: int, den: int):
    """First coefficient of poly * g/den that is not an integer, as
    (index, reduced fraction), or None when poly * g/den is in Z[x]."""
    for i, coef in enumerate(poly.coeffs):
        if coef * g % den:
            return i, Fraction(coef * g, den)
    return None


# part -> (family, half, prefactor g(m, n), h_lo, h_hi or None for h_max): g/(n(n+1)(n+2))
# times half 0 (plain) or 1 (alternating) of _POW_SUM at (family, h, m) lies in Z[x]
_INTEGRALITY_PARTS = {
    "5.4": (_W_POLY, 0, lambda m, n: gcd(2, n), 1, None),
    "5.5": (_W_POLY, 1, lambda m, n: gcd(2, n), 1, 1),
    "5.6": (_W_POLY, 1, lambda m, n: 1, 2, None),
    "5.8": (_BIG_S_POLY, 0, lambda m, n: gcd(2, n), 1, None),
    "5.9": (_BIG_S_POLY, 1, lambda m, n: gcd(2, m - 1, n), 1, None),
}


def _check_integrality(point):
    part, h, m, n = point
    family, half, prefactor, _, _ = _INTEGRALITY_PARTS[part]
    total = _POW_SUM.at(n, (family, h, m))[half]
    witness = _integrality_witness(total, prefactor(m, n), n * (n + 1) * (n + 2))
    if witness is not None:
        i, coef = witness
        return _fail(f"coefficient of x^{i} = {_fraction_digits(coef)}", "an integer")
    return _OK


# ---------------------------------------------------------------------------
# Points for the composite conjecture claims
# ---------------------------------------------------------------------------

def _integrality_points(*parts: str) -> Grid:
    def points(rng: ParamRange):
        for part in parts:
            h_lo, h_hi = _INTEGRALITY_PARTS[part][3:]
            for h in range(h_lo, (h_hi or rng.h_max) + 1):
                for m in range(1, rng.m_max + 1):
                    for n in range(1, rng.n_max + 1):
                        yield (part, h, m, n)
    return Grid(("part", "h", "m", "n"), ("n_max", "h_max", "m_max"), points)


def _points_conj_5_1_b() -> Grid:
    primes = _prime_points()

    def points(rng: ParamRange):
        if rng.prime_lo <= 3 <= rng.prime_hi:
            yield Skip({"p": 3}, "the symbols (p/3) and (3/p) vanish at p = 3; "
                                 "the congruence is outside their domain")
        yield from primes.points(rng)
    return replace(primes, points=points)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    id: str
    suite: str | None  # "theorems", "lemmas", "identities", "conjectures"; None for MUT-*
    statement: str
    grid: Grid
    check: Callable
    default_range: ParamRange
    deep_range: ParamRange
    notes: dict | None = None


_BASE = ParamRange()

CLAIMS: dict[str, Claim] = {}


def _mk(claim_id, suite, statement, grid, check, *, deep=None, notes=None,
        **range_overrides):
    if claim_id in CLAIMS:
        raise ValueError(f"duplicate claim id {claim_id}")
    rng = _BASE.override(**range_overrides) if range_overrides else _BASE
    # --deep: twice the default n_max and primes to 5000, unless the claim says otherwise
    deep_rng = rng.override(**{"n_max": 2 * rng.n_max, "prime_hi": 5000, **(deep or {})})
    CLAIMS[claim_id] = Claim(claim_id, suite, statement, grid, check, rng, deep_rng, notes)

_mk("THM-1.1.i", "theorems",
    "2/n * sum_{k=1..n} (2k+1)*M_k^2 is an integer",
    _n_points(), _check_thm_1_1_i, deep={"n_max": 2000})
_mk("THM-1.1.ii", "theorems",
    "sum_{k=0..p-1} (2k+1)*M_k^2 = 12p(p/3) (mod p^2) for primes p > 3",
    _prime_points(), _check_thm_1_1_ii)
_mk("THM-1.2", "theorems",
    "n^2(n^2-1)/6 divides sum_{k=0..n-1} k(k+1)(8k+9)*T_k*T_{k+1}",
    _n_points(), _check_thm_1_2, deep={"n_max": 1000})
_mk("THM-1.3.a", "theorems",
    "b*n(n+1)/2 divides sum_{k=1..n} k*T_k(b,c)*T_{k-1}(b,c)*d^(n-k)",
    _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_a, n_max=100)
_mk("THM-1.3.b", "theorems",
    "b*n^2(n+1)^2/4 divides 3*sum_{k=1..n} k^3*T_k(b,c)*T_{k-1}(b,c)*d^(n-k)",
    _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_b, n_max=100)
_mk("THM-1.3.c", "theorems",
    "gcd(2,n)/(n(n+1)(n+2)) * sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k(b,c)^2*d^(n-1-k) is an integer",
    _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_c, n_max=100)
_mk("THM-1.3.d", "theorems",
    "sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k(b,c)^2*(-d)^(n-1-k) = n(n+1)(n+2)*M_n*M_{n-1}/b, an integer",
    _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_d, n_max=100)
_mk("ID-1.8", "identities",
    "sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k^2*3^(n-1-k) = n(n+1)(n+2)*M_n*M_{n-1}",
    _n_points(), lambda n: _check_thm_1_3_d((1, 1, n)), deep={"n_max": 500})
_mk("COR-1.1.ab", "theorems",
    "3n(n+1)/2 divides sum k*D_k*D_{k-1} and n^2(n+1)^2/4 divides sum k^3*D_k*D_{k-1}",
    _n_points(), _check_cor_1_1_ab, deep={"n_max": 300})
_mk("COR-1.1.c", "theorems",
    "n(n+1)(n+2)/gcd(2,n) divides sum_{k=1..n} k(k+1)(2k+1)*s_k^2",
    _n_points(), lambda n: _check_thm_1_3_c((3, 2, n)), deep={"n_max": 300})
_mk("COR-1.1.d", "theorems",
    "1/(n(n+1)(n+2)) * sum (-1)^(n-k) k(k+1)(2k+1)*s_k^2 = s_n*s_{n+1}/3, an integer",
    _n_points(), lambda n: _check_thm_1_3_d((3, 2, n)), deep={"n_max": 300})

_mk("ID-2.3", "identities",
    "S_n(x) = (x+1)*s_n(x)",
    _n_points(), _check_id_2_3, n_max=50)
_mk("LEM-2.1.a", "lemmas",
    "n(n+1)*s_n(x)^2 = sum_{k=1..n} C(n+k,2k)C(2k,k)C(2k,k+1)*(x(x+1))^(k-1)",
    _n_points(), _check_lem_2_1_a, n_max=50)
_mk("LEM-2.1.b", "lemmas",
    "M_n(b,c) = sqrt(d)^n * s_{n+1}((b/sqrt(d)-1)/2), checked times 2^n in Z[y]/(y^2-d)",
    _grid_points(d_nonzero=True, n_lo=0), _check_lem_2_1_b, n_max=15)
_mk("REM-2.1", "identities",
    "M_n(b,c)^2 = 1/((n+1)(n+2)) * sum_{k=1..n+1} C(n+k+1,2k)C(2k,k)C(2k,k+1)*c^(k-1)*d^(n+1-k)",
    _grid_points(d_nonzero=True, n_lo=0), _check_rem_2_1, n_max=60)
_mk("LEM-2.2", "lemmas",
    "sum_{k=1..n} (2k+1)M_k^2 equals its single-sum telescoped form",
    _n_points(), _check_lem_2_2)
_mk("EQ-2.8", "identities",
    "double sum of F(k,l) = 1 + (4n+3)(-3)^(n+1) + factorial-form single sum",
    _n_points(), _check_eq_2_8, n_max=100)
_mk("LEM-2.3", "lemmas",
    "[n]_q divides sum_k [n+1 k]^a [n+k k]^b [2k k] [k+2]_q (-[3]_q)^(n-1-k)  (a >= 1)",
    # exponent a = 0 falsifies the congruence (already at q = 1), so the
    # valid grid starts at a = 1; b = 0 is fine
    _exponent_points(a_lo=1, even=False), _check_lem_2_3, n_max=40, deep={"n_max": 120},
    notes={"a_min": 1,
           "reason": "exponent a = 0 falsifies the divisibility "
                     "(e.g. n = 5: sum = 336 is not divisible by 5 at q = 1)"})
_mk("LEM-2.4", "lemmas",
    "sum_{k=1..p-1} C(2k,k)/(k*3^k) = (3^(p-1)-1)/p (mod p) for primes p > 3",
    _prime_points(), _check_lem_2_4)
_mk("EQ-2.11", "identities",
    "2*sum (2k+1)M_k^2 = 27*sum C(n+1,k)C(n+k,k)C(2k,k)(k+2)(-3)^(n-1-k) (mod n)",
    _n_points(), _check_eq_2_11)

_mk("LEM-3.1.a", "lemmas",
    "b * sum_{k=0..n-1} (2k+1)T_k(b,c)^2(-d)^(n-1-k) = n*T_n(b,c)*T_{n-1}(b,c)",
    _grid_points(), _check_lem_3_1_a, n_max=100)
_mk("LEM-3.1.b", "lemmas",
    "T_k(b,c)^2 = sum_j C(k+j,2j)C(2j,j)^2*c^j*d^(k-j)",
    _grid_points(n_lo=0, index="k"), _check_lem_3_1_b, n_max=100)
_mk("LEM-3.2", "lemmas",
    "sum k(k+1)(8k+9)T_k*T_{k+1} = ((-1)^n n/6) * sum C(n-1,k)C(-n-1,k)Cat_k*3^(n-1-k)*a(n,k)",
    _n_points(), _check_lem_3_2, n_max=100)
_mk("EQ-3.partial", "identities",
    "sum_{k=j+1..m} (k-1)(8k+1)3^(k-1-j) = (3^(m-j)(16m^2-30m+21) - (16j^2-30j+21))/4",
    _triangle_points(), _check_eq_3_partial, n_max=60)
_mk("EQ-3.4", "identities",
    "double sum of the weighted T-square telescoping equals its factorial single-sum form",
    _n_points(), _check_eq_3_4, n_max=100)
_mk("LEM-3.3", "lemmas",
    "n^2 - 1 divides sum C(n-1,k)C(-n-1,k)Cat_k*3^(n-1-k)*a(n,k)",
    _n_points(), _check_lem_3_3, n_max=100)
_mk("LEM-3.4", "lemmas",
    "2n divides sum C(n-1,k)^a C(-n-1,k)^b C(2k,k)(k+2)3^(n-1-k) for a+b even",
    _exponent_points(a_lo=0, even=True), _check_lem_3_4, n_max=80, qexp_a_max=3, qexp_b_max=3)

_mk("LEM-4.1", "lemmas",
    "n*T_n(b,c)*T_{n-1}(b,c) = b*sum_j (n-j)C(n+j,2j)C(2j,j)^2*c^j*d^(n-1-j)",
    _grid_points(), _check_lem_4_1, n_max=100)
_mk("EQ-4.2", "identities",
    "sum_{k=j..m-1} (-1)^(m-1-k)(2k+1)C(k+j,2j) = (m-j)C(m+j,2j)",
    _triangle_points(), _check_eq_4_2, n_max=60)
_mk("LEM-4.2", "lemmas",
    "n(n+1)(n+2)/gcd(2,n) divides (n+k+1)C(n+k,k)C(n+1,k+1)C(2k,k+1)",
    _nk_points(), _check_lem_4_2, n_max=100)
_mk("LEM-4.3", "lemmas",
    "n+2 divides 6*C(2n,n)",
    _n_points(lo=0), _check_lem_4_3)
_mk("LEM-4.4.a", "lemmas",
    "w(n,k) = sum_j C(n-j,k-j)*N(n,j)",
    _nk_points(), _check_lem_4_4_a, n_max=100)
_mk("LEM-4.4.b", "lemmas",
    "N(n,k) = sum_j C(n-j,k-j)(-1)^(k-j)*w(n,j)",
    _nk_points(), _check_lem_4_4_b, n_max=100)
_mk("LEM-4.5", "lemmas",
    "w_n(x) = s_n(x)",
    _n_points(), _check_lem_4_5, n_max=60)
_mk("LEM-4.6", "lemmas",
    "(2x+1)*sum (-1)^(n-k) k(k+1)(2k+1)w_k(x)^2 = n(n+1)(n+2)*w_n(x)*w_{n+1}(x)",
    _n_points(), _check_lem_4_6, n_max=50)
_mk("EQ-4.10", "identities",
    "sum_{k=j+1..m} k^(2d)(k-j)C(k+j,2j) = (m^d(m+1)^d/2)((m-j)(m+j+1)/(j+d+1))C(m+j,2j)",
    _triangle_points(deltas=(0, 1)), _check_eq_4_10, n_max=60)
_mk("EQ-4.11", "identities",
    "sum_k k^(2d+1)T_k*T_{k-1}*d^(n-k) = (b/2)(n(n+1))^(d+1)*sum_j ... C(2j,j)/(j+d+1) ...",
    _grid_points(deltas=(0, 1)), _check_eq_4_11, n_max=100)
_mk("EQ-4.12", "identities",
    "sum_{k=j..m} (2k+1)C(k+j,2j) = ((m+1)(m+j+1)/(j+1))C(m+j,2j)",
    _triangle_points(strict=False), _check_eq_4_12, n_max=60)
_mk("EQ-4.13", "identities",
    "sum k(k+1)(2k+1)s_k(x)^2 = sum (n+k+1)C(n+1,k+1)C(n+k,k)C(2k,k+1)(x(x+1))^(k-1)",
    _n_points(), _check_eq_4_13, n_max=50)
_mk("REC-w", "identities",
    "(n+3)*w_{n+2}(x) = (2x+1)(2n+3)*w_{n+1}(x) - n*w_n(x)",
    _n_points(), _check_rec_w, n_max=50,
    # the offset is pinned at 0; the notes keep the form reports have always carried
    notes={"index_offset": 0,
           "form": "(n+3)*w[n+2+off] = (2x+1)(2n+3)*w[n+1+off] - n*w[n+off]"})

_mk("REC-W", "identities",
    "(n+3)W_{n+3} = (3n+7)W_{n+2} + (n-5)W_{n+1} - 3(n+1)W_n",
    _n_points(lo=0), _check_rec_W, n_max=1000)
_mk("CONJ-5.1.a", "conjectures",
    "sum_{k=0..n-1} (8k+9)W_k^2 = n (mod 2n)",
    _n_points(), _check_conj_5_1_a, deep={"n_max": 2000})
_mk("CONJ-5.1.b", "conjectures",
    "(1/p)*sum_{k=0..p-1} (8k+9)W_k^2 = 24 + 10(-1/p) - 9(p/3) - 18(3/p) (mod p^2)",
    _points_conj_5_1_b(), _check_conj_5_1_b, prime_hi=500, deep={"prime_hi": 500})
_mk("REM-5.1", "conjectures",
    "sum_{k=0..p-1} W_k^2 = 2 (mod p) for primes p > 3",
    _prime_points(), _check_rem_5_1, prime_hi=500)
_mk("CONJ-5.2.abc", "conjectures",
    "gcd-scaled sums of k(k+1)(2k+1)*w_k^(h)(x)^m (plain and alternating) lie in Z[x]",
    _integrality_points("5.4", "5.5", "5.6"), _check_integrality, n_max=40)
_mk("CONJ-5.3.ab", "conjectures",
    "gcd-scaled sums of k(k+1)(2k+1)*S_k^(h)(x)^m (plain and alternating) lie in Z[x]",
    _integrality_points("5.8", "5.9"), _check_integrality, n_max=40,
    notes={"prefactor_5_9": "gcd(2,m-1,n)"})

_mk("MUT-THM-1.1.i", None,
    "mutation fixture: weight (2k+1) perturbed to (2k+2); must yield a counterexample",
    _n_points(), lambda n: _check_thm_1_1_i(n, e=2), n_max=25)
_mk("MUT-THM-1.2", None,
    "mutation fixture: weight (8k+9) perturbed to (8k+10); must yield a counterexample",
    _n_points(), lambda n: _check_thm_1_2(n, e=10), n_max=25)
_mk("MUT-ID-1.8", None,
    "mutation fixture: weight (2k+3) perturbed to (2k+4); must yield a counterexample",
    _n_points(), lambda n: _check_thm_1_3_d((1, 1, n), e=4), n_max=25)
_mk("MUT-LEM-2.3", None,
    "mutation fixture: [k+2]_q perturbed to [k+3]_q at a = b = 1; must yield a counterexample",
    _n_points(), lambda n: _check_lem_2_3((1, 1, n), weight_shift=3, label="mutated sum"), n_max=25)
