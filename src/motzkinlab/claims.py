"""Executable claim registry.

Every numbered identity, divisibility, congruence, and conjecture over the
sequence/polynomial families is registered here as a ``Claim``: a parameter
grid plus an exact-arithmetic point checker returning ``("ok", derived)``
or ``("fail", lhs, rhs)``; grids yield ``Skip`` outside a claim's domain,
and the engine in ``verify`` turns ordered point results into reports.

Four deliberately broken variants (MUT-*) are registered alongside the real
claims; they must produce counterexamples and exist to prove the verifiers
are not vacuous.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Iterable

from . import modular, sequences as seq
# q_binomial is called by no checker (LEM-2.3 folds its own q-Pascal rows), but
# perfbench/tracer.py wraps claims.q_binomial by name, so the binding stays.
from .polynomials import (Poly, ZERO, ONE, _fold, _folded_q_binomial_rows, _mul_cyclic,
                          big_schroder_poly, q_binomial, q_integer, s_poly, w_poly)
from .reports import ParamRange


class NonIntegral(ArithmeticError):
    """An exact quotient that the claims guarantee to be integral was not."""

    def __init__(self, message: str, remainder):
        super().__init__(message)
        self.remainder = remainder


# ---------------------------------------------------------------------------
# Golden quotient operations
# ---------------------------------------------------------------------------

def s_quotient(n: int) -> int:
    """s(n) = (2/n) * sum_{k=1..n} (2k+1) * Motzkin(k)^2 (always an integer)."""
    if n < 1:
        raise ValueError("s_quotient: n must be >= 1")
    total = 2 * _WSUM_M.at(n)
    q, r = divmod(total, n)
    if r:
        raise NonIntegral(f"s_quotient({n}): remainder {r}", r)
    return q


def t_quotient(n: int) -> int:
    """t(n) = 6/(n^2(n^2-1)) * sum_{k=0..n-1} k(k+1)(8k+9) T_k T_{k+1}."""
    if n < 2:
        raise ValueError("t_quotient: n must be >= 2")
    total = 6 * _TT_SUM.at(n)
    q, r = divmod(total, n * n * (n * n - 1))
    if r:
        raise NonIntegral(f"t_quotient({n}): remainder {r}", r)
    return q


# ---------------------------------------------------------------------------
# Running accumulators (incremental prefix sums, cached per claim and key)
# ---------------------------------------------------------------------------

class _Acc(seq._PrefixCache):
    """Cached accumulator A(n) = step(A(n-1), n, key) with A(start-1) = init."""

    def __init__(self, start: int, step, init=0):
        super().__init__(lambda prefix, n, key: step(prefix[-1], n, key) if prefix else init,
                         start - 1)

    # A binding of its own, so accumulator lookups can be traced apart from
    # the sequence tables and the other caches.
    at = seq._PrefixCache.at


def _d_of(key) -> int:
    b, c = key
    return b * b - 4 * c


# sum_{k=1..n} (2k+1) M_k^2
_WSUM_M = _Acc(1, lambda prev, n, _: prev + (2 * n + 1) * seq.motzkin(n) ** 2)
# mutated weight (2k+2)
_WSUM_M_MUT = _Acc(1, lambda prev, n, _: prev + (2 * n + 2) * seq.motzkin(n) ** 2)
# sum_{k=0..n-1} k(k+1)(8k+9) T_k T_{k+1}
_TT_SUM = _Acc(1, lambda prev, n, _: prev
               + (n - 1) * n * (8 * n + 1) * seq.central_trinomial(n - 1) * seq.central_trinomial(n))
_TT_SUM_MUT = _Acc(1, lambda prev, n, _: prev
                   + (n - 1) * n * (8 * n + 2) * seq.central_trinomial(n - 1) * seq.central_trinomial(n))
# sum_{k=0..n-1} (k+1)(k+2)(2k+3) M_k(b,c)^2 d^(n-1-k)
_S16 = _Acc(1, lambda prev, n, key: _d_of(key) * prev
            + n * (n + 1) * (2 * n + 1) * seq.gen_motzkin(n - 1, *key) ** 2)
# same with (-d)^(n-1-k)
_S17 = _Acc(1, lambda prev, n, key: -_d_of(key) * prev
            + n * (n + 1) * (2 * n + 1) * seq.gen_motzkin(n - 1, *key) ** 2)
# mutated (1.8): weight (k+1)(k+2)(2k+4) at b = c = 1 (so -d = 3)
_S18_MUT = _Acc(1, lambda prev, n, _: 3 * prev
                + n * (n + 1) * (2 * n + 2) * seq.motzkin(n - 1) ** 2)
# sum_{k=0..n-1} (2k+1) T_k(b,c)^2 (-d)^(n-1-k)
_S31 = _Acc(1, lambda prev, n, key: -_d_of(key) * prev
            + (2 * n - 1) * seq.gen_trinomial(n - 1, *key) ** 2)
# sum_{k=1..n} k^(2*delta+1) T_k T_{k-1} d^(n-k), keyed (b, c, delta); THM-1.3.a
# reads delta = 0 and THM-1.3.b delta = 1
_S411 = _Acc(1, lambda prev, n, key: _d_of(key[:2]) * prev
             + n ** (2 * key[2] + 1) * seq.gen_trinomial(n, *key[:2]) * seq.gen_trinomial(n - 1, *key[:2]))
# Delannoy sums for (1.9)
_S19A = _Acc(1, lambda prev, n, _: prev + n * seq.delannoy(n) * seq.delannoy(n - 1))
_S19B = _Acc(1, lambda prev, n, _: prev + n ** 3 * seq.delannoy(n) * seq.delannoy(n - 1))
# sum_{k=1..n} k(k+1)(2k+1) s_k^2
_S110 = _Acc(1, lambda prev, n, _: prev
             + n * (n + 1) * (2 * n + 1) * seq.schroder_little(n) ** 2)
# sum_{k=1..n} (-1)^(n-k) k(k+1)(2k+1) s_k^2
_S111 = _Acc(1, lambda prev, n, _: n * (n + 1) * (2 * n + 1) * seq.schroder_little(n) ** 2 - prev)
# sum_{k=0..n-1} (8k+9) W_k^2
_SW52 = _Acc(1, lambda prev, n, _: prev + (8 * n + 1) * seq.motzkin_analog_w(n - 1) ** 2)
# sum_{k=0..n-1} W_k^2
_SW51 = _Acc(1, lambda prev, n, _: prev + seq.motzkin_analog_w(n - 1) ** 2)
# double sum of F(k, l) from the (2k+1)M_k^2 telescoping, one integer row per k
_E28_LHS = _Acc(0, lambda prev, n, _: prev + _e28_row(n))
# polynomial accumulators
_P46 = _Acc(1, lambda prev, n, _: _W_POLY.at(n, 1) * _W_POLY.at(n, 1) * (n * (n + 1) * (2 * n + 1))
            - prev, init=ZERO)
_P52 = _Acc(1, lambda prev, n, key: prev
            + (_W_POLY.at(n, key[0]) ** key[1]) * (n * (n + 1) * (2 * n + 1)), init=ZERO)
_P52_ALT = _Acc(1, lambda prev, n, key: prev
                + (_W_POLY.at(n, key[0]) ** key[1]) * ((-1) ** n * n * (n + 1) * (2 * n + 1)),
                init=ZERO)
_P53 = _Acc(1, lambda prev, n, key: prev
            + (_BIG_S_POLY.at(n, key[0]) ** key[1]) * (n * (n + 1) * (2 * n + 1)), init=ZERO)
_P53_ALT = _Acc(1, lambda prev, n, key: prev
                + (_BIG_S_POLY.at(n, key[0]) ** key[1]) * ((-1) ** n * n * (n + 1) * (2 * n + 1)),
                init=ZERO)


# polynomial families by index n (w and S keyed by the exponent h)
_S_POLY = seq._PrefixCache(lambda _prefix, n, _key: s_poly(n), start=1)
_W_POLY = seq._PrefixCache(lambda _prefix, n, h: w_poly(n, h), start=1)
_BIG_S_POLY = seq._PrefixCache(lambda _prefix, n, h: big_schroder_poly(n, h))
_XP1 = Poly((1, 1))
_Y = Poly((0, 1, 1))  # x(x+1)


def _a_coeff(n: int, k: int) -> int:
    """Quadratic-in-k weight used by the T_k T_{k+1} closed forms."""
    return (4 * k * k * n * n - 8 * k * n ** 3 - 14 * k * k * n - 14 * k * n * n
            - 4 * n ** 3 + 13 * k * k - 11 * k * n - 26 * n * n + 39 * k + 4 * n + 26)


def _hom_eval(weights: Iterable[int], c, d):
    """sum_j w_j c^j d^(m-j) over the weights w_0..w_m by homogeneous Horner; d may be a Poly."""
    acc, cj = 0, 1
    for w in weights:
        acc = acc * d + w * cj
        cj *= c
    return acc


def _eq_4_11_row(_prefix, n: int, delta: int) -> tuple[int, tuple[int, ...]]:
    big_l = lcm(*range(1, n + delta + 1))
    return big_l, tuple(comb(n - 1, j) * comb(n + j + 1, j) * comb(2 * j, j)
                        * (big_l // (j + delta + 1)) for j in range(n))


# coefficient rows of the (b, c)-sums, keyed by n alone and evaluated at (c, d) by _hom_eval
_T2_ROW = seq._PrefixCache(lambda _prefix, n, _key: tuple(  # LEM-3.1.b, LEM-4.1, EQ-3.4
    comb(n + j, 2 * j) * comb(2 * j, j) ** 2 for j in range(n + 1)))
_M2_ROW = seq._PrefixCache(lambda _prefix, n, _key: tuple(  # REM-2.1, EQ-2.8, LEM-2.1.a
    comb(n + k + 1, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1) for k in range(1, n + 2)))
_EQ411_ROW = seq._PrefixCache(_eq_4_11_row, start=1)  # (L, row) keyed by delta: EQ-4.11


def _e28_row(k: int) -> int:
    """sum_l F(k, l) = (2k+1)/((k+1)(k+2)) sum_l C(k+l+2,2l+2)C(2l+2,l+1)C(2l+2,l)(-3)^(k-l).
    The sum is REM-2.1's row k at (c, d) = (1, -3), (k+1)(k+2)M_k^2, so the division is exact."""
    q, r = divmod(_hom_eval(_M2_ROW.at(k), 1, -3), (k + 1) * (k + 2))
    if r:
        raise NonIntegral(f"EQ-2.8 row {k}: remainder {r}", r)
    return (2 * k + 1) * q


# ---------------------------------------------------------------------------
# Point outcome helpers
# ---------------------------------------------------------------------------

def _ok(derived=None):
    return ("ok", derived)


def _fail(lhs, rhs):
    return ("fail", str(lhs), str(rhs))


def _divides(value: int, divisor: int):
    """Divisibility with the 0 | x convention (only 0 is divisible by 0)."""
    if divisor == 0:
        return value == 0, value
    return value % divisor == 0, value % divisor


@dataclass(frozen=True)
class Skip:
    point: object
    reason: str


# ---------------------------------------------------------------------------
# Point grids
# ---------------------------------------------------------------------------

def _n_points(lo: int = 1):
    def points(rng: ParamRange):
        return iter(range(lo, rng.n_max + 1))
    return points


def _prime_points(rng: ParamRange):  # primes p > 3
    return iter(modular.primes_in(max(rng.prime_lo, 5), rng.prime_hi))


def _grid_points(*, d_nonzero: bool = False, b_nonzero: bool = False, n_lo: int = 1,
                 deltas: tuple[int, ...] | None = None):
    def points(rng: ParamRange):
        for b in rng.b_set:
            for c in rng.c_set:
                if b_nonzero and b == 0:
                    yield Skip({"b": b, "c": c}, "requires b != 0")
                    continue
                if d_nonzero and b * b - 4 * c == 0:
                    yield Skip({"b": b, "c": c}, "requires d = b^2 - 4c != 0")
                    continue
                if deltas is None:
                    for n in range(n_lo, rng.n_max + 1):
                        yield (b, c, n)
                else:
                    for delta in deltas:
                        for n in range(n_lo, rng.n_max + 1):
                            yield (b, c, delta, n)
    return points


def _triangle_points(*, strict: bool = True, deltas=None):
    """(j, m) pairs with 0 <= j < m <= n_max (or j <= m when not strict)."""
    def points(rng: ParamRange):
        for m in range(1 if strict else 0, rng.n_max + 1):
            for j in range(m if strict else m + 1):
                if deltas is None:
                    yield (j, m)
                else:
                    for delta in deltas:
                        yield (delta, j, m)
    return points


def _nk_points(k_lo: int = 1):
    def points(rng: ParamRange):
        for n in range(max(k_lo, 1), rng.n_max + 1):
            for k in range(k_lo, n + 1):
                yield (n, k)
    return points


# ---------------------------------------------------------------------------
# Checkers: theorems and corollaries
# ---------------------------------------------------------------------------

def _check_thm_1_1_i(point):
    n = point
    total = 2 * _WSUM_M.at(n)
    ok, rem = _divides(total, n)
    if not ok:
        return _fail(f"2*sum = {total} = {rem} (mod {n})", "0 (mod n)")
    return _ok(total // n)


def _check_thm_1_1_ii(point):
    p = point
    total = 1 + _WSUM_M.at(p - 1)  # k = 0 contributes 1 * M_0^2
    rhs = 12 * p * modular.legendre(p, 3)
    if (total - rhs) % (p * p):
        return _fail(f"sum = {total % (p * p)} (mod p^2)", f"12p(p/3) = {rhs % (p * p)} (mod p^2)")
    return _ok()


def _check_thm_1_2(point):
    n = point
    total = _TT_SUM.at(n)
    divisor = n * n * (n * n - 1) // 6
    ok, rem = _divides(6 * total, n * n * (n * n - 1))
    if not ok:
        return _fail(f"sum = {total}, remainder {rem}", f"0 (mod {divisor})")
    return _ok(6 * total // (n * n * (n * n - 1)) if n >= 2 else None)


def _check_thm_1_3_a(point):
    b, c, n = point
    total = _S411.at(n, (b, c, 0))
    divisor = abs(b) * (n * (n + 1) // 2)
    ok, rem = _divides(total, divisor)
    if not ok:
        return _fail(f"sum = {total} = {rem} (mod {divisor})", "0 (mod b*n(n+1)/2)")
    return _ok()


def _check_thm_1_3_b(point):
    b, c, n = point
    total = 3 * _S411.at(n, (b, c, 1))
    divisor = abs(b) * (n * (n + 1) // 2) ** 2
    ok, rem = _divides(total, divisor)
    if not ok:
        return _fail(f"3*sum = {total} = {rem} (mod {divisor})", "0 (mod b*n^2(n+1)^2/4)")
    return _ok()


def _check_thm_1_3_c(point):
    b, c, n = point
    total = gcd(2, n) * _S16.at(n, (b, c))
    divisor = n * (n + 1) * (n + 2)
    ok, rem = _divides(total, divisor)
    if not ok:
        return _fail(f"gcd(2,n)*sum = {total} = {rem} (mod {divisor})", "0 (mod n(n+1)(n+2))")
    return _ok()


def _check_thm_1_3_d(point):
    b, c, n = point
    mm = seq.gen_motzkin(n, b, c) * seq.gen_motzkin(n - 1, b, c)
    if mm % abs(b):
        return _fail(f"M_n*M_(n-1) = {mm}", f"0 (mod b = {b})")
    lhs = b * _S17.at(n, (b, c))
    rhs = n * (n + 1) * (n + 2) * mm
    if lhs != rhs:
        return _fail(f"b*alt-sum = {lhs}", f"n(n+1)(n+2)*M_n*M_(n-1) = {rhs}")
    return _ok()


def _check_id_1_8(point):
    n = point
    lhs = _S17.at(n, (1, 1))
    rhs = n * (n + 1) * (n + 2) * seq.motzkin(n) * seq.motzkin(n - 1)
    if lhs != rhs:
        return _fail(f"sum = {lhs}", f"n(n+1)(n+2)*M_n*M_(n-1) = {rhs}")
    return _ok()


def _check_cor_1_1_ab(point):
    n = point
    d1 = 3 * (n * (n + 1) // 2)
    ok, rem = _divides(_S19A.at(n), d1)
    if not ok:
        return _fail(f"sum k*D_k*D_(k-1) = {rem} (mod {d1})", "0 (mod 3n(n+1)/2)")
    d2 = (n * (n + 1) // 2) ** 2
    ok, rem = _divides(_S19B.at(n), d2)
    if not ok:
        return _fail(f"sum k^3*D_k*D_(k-1) = {rem} (mod {d2})", "0 (mod n^2(n+1)^2/4)")
    return _ok()


def _check_cor_1_1_c(point):
    n = point
    divisor = n * (n + 1) * (n + 2) // gcd(2, n)
    ok, rem = _divides(_S110.at(n), divisor)
    if not ok:
        return _fail(f"sum = {rem} (mod {divisor})", "0 (mod n(n+1)(n+2)/gcd(2,n))")
    return _ok()


def _check_cor_1_1_d(point):
    n = point
    ss = seq.schroder_little(n) * seq.schroder_little(n + 1)
    if ss % 3:
        return _fail(f"s_n*s_(n+1) = {ss}", "0 (mod 3)")
    total = _S111.at(n)
    divisor = n * (n + 1) * (n + 2)
    if total % divisor:
        return _fail(f"alt-sum = {total % divisor} (mod {divisor})", "0 (mod n(n+1)(n+2))")
    if 3 * total != divisor * ss:
        return _fail(f"3*alt-sum = {3 * total}", f"n(n+1)(n+2)*s_n*s_(n+1) = {divisor * ss}")
    return _ok()


# ---------------------------------------------------------------------------
# Checkers: polynomial identities
# ---------------------------------------------------------------------------

def _check_id_2_3(point):
    n = point
    lhs = big_schroder_poly(n, 1)
    rhs = _XP1 * _S_POLY.at(n)
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _ok()


def _check_lem_2_1_a(point):
    n = point
    lhs = _S_POLY.at(n) * _S_POLY.at(n) * (n * (n + 1))
    # REM-2.1's row n-1 at (c, d) = (x(x+1), 1), read from the top at (1, x(x+1))
    rhs = _hom_eval(reversed(_M2_ROW.at(n - 1)), 1, _Y)
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _ok()


def _check_rem_2_1(point):
    b, c, n = point
    lhs = (n + 1) * (n + 2) * seq.gen_motzkin(n, b, c) ** 2
    rhs = _hom_eval(_M2_ROW.at(n), c, b * b - 4 * c)
    if lhs != rhs:
        return _fail(f"(n+1)(n+2)*M_n^2 = {lhs}", f"sum = {rhs}")
    return _ok()


def _check_lem_2_2(point):
    n = point
    lhs = (n + 2) * _WSUM_M.at(n)
    rhs = sum((4 * n - 2 * k + 3) * (n + k + 2) * comb(n + k + 1, 2 * k)
              * comb(2 * k, k) * comb(2 * k + 1, k) * (-3) ** (n + 1 - k)
              for k in range(n + 2))
    if lhs != rhs:
        return _fail(f"(n+2)*sum(2k+1)M_k^2 = {lhs}", f"single sum = {rhs}")
    return _ok()


def _eq_2_8_sum(n: int) -> int:
    """n+2 times EQ-2.8's single sum, with (n+j+3)!(2j+3)!/((n-j)!(j+2)(j+1)!^4)
    = (j+2)C(n+j+3,2j+3)C(2j+3,j+1)^2."""
    return sum((-3) ** (n - j) * (4 * n - 2 * j + 1) * (j + 2)
               * comb(n + j + 3, 2 * j + 3) * comb(2 * j + 3, j + 1) ** 2 for j in range(n + 1))


def _check_eq_2_8(point):
    n = point
    lhs = _E28_LHS.at(n)
    base = 1 + (4 * n + 3) * (-3) ** (n + 1)
    total = _eq_2_8_sum(n)
    if (n + 2) * (lhs - base) != total:
        return _fail(f"double sum = {lhs}", f"telescoped form = {base + Fraction(total, n + 2)}")
    return _ok()


def _q29_factors(_prefix, n: int, shift: int) -> tuple[list, list, list]:
    """The point-independent factors of LEM-2.3's sum at n, folded mod q^n - 1:
    for k = 0..n-1, [k+w]_q [2k k], [n+1 k] and [n+k k], with w = shift.

    Rows m <= max(2n-1, n+1) of the folded q-Pascal triangle hold them all."""
    base, upper, lower = [], [], []
    for m, row in enumerate(_folded_q_binomial_rows(n, max(2 * n - 1, n + 1))):
        if m % 2 == 0 and m // 2 < n:
            k = m // 2
            base.append(tuple(_mul_cyclic(_fold(q_integer(k + shift).coeffs, n), row[k], n)))
        if n <= m < 2 * n:
            lower.append(row[m - n])
        if m == n + 1:
            upper = row
    return base, upper, lower


def _q29_chain(prefix, bexp: int, key: tuple[int, int]) -> list:
    """[k+w]_q [2k k] [n+k k]^b for k = 0..n-1 at b = bexp, from b - 1."""
    n, shift = key
    base, _, lower = _Q29_FACTORS.at(n, shift)
    if not bexp:
        return base
    return [tuple(_mul_cyclic(t, f, n)) for t, f in zip(prefix[-1], lower)]


# per n, keyed by the weight shift w; then per (n, w), indexed by b.  A fill
# holds its cache's lock, so a _Q29_CHAIN step reads _Q29_FACTORS and never
# the other way round.
_Q29_FACTORS = seq._PrefixCache(_q29_factors, start=1)
_Q29_CHAIN = seq._PrefixCache(_q29_chain)


def _q_sum_2_9(n: int, a: int, bexp: int, weight_shift: int = 2) -> list[int]:
    """sum_{k=0..n-1} [n+1 k]^a [n+k k]^b [2k k] [k+w]_q (-[3]_q)^(n-1-k),
    folded mod q^n - 1: the n coefficients of its residue.  The powers of
    -[3]_q come from Horner's rule, acc = acc*(-[3]_q) + term_k."""
    neg_q3 = -q_integer(3)
    upper = _Q29_FACTORS.at(n, weight_shift)[1]
    acc = [0] * n
    for term, top in zip(_Q29_CHAIN.at(bexp, (n, weight_shift)), upper):
        for _ in range(a):
            term = _mul_cyclic(term, top, n)
        acc = [x + t for x, t in zip(_fold((Poly(acc) * neg_q3).coeffs, n), term)]
    return acc


def _mod_q_integer(residue: list[int]) -> Poly:
    """P mod [n]_q from the residue r of P mod q^n - 1.  [n]_q is monic and
    divides q^n - 1, so P mod [n]_q = sum_{i<n-1} (r_i - r_(n-1)) q^i."""
    return Poly([r - residue[-1] for r in residue[:-1]])


def _check_lem_2_3(point):
    a, bexp, n = point
    remainder = _mod_q_integer(_q_sum_2_9(n, a, bexp))
    if remainder:
        return _fail(f"sum mod [n]_q = {remainder.render('q')}", "0")
    return _ok()


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
    return _ok()


def _check_eq_2_11(point):
    n = point
    lhs = 2 * _WSUM_M.at(n)
    rhs = 27 * sum(seq.binomial(n + 1, k) * comb(n + k, k) * comb(2 * k, k)
                   * (k + 2) * (-3) ** (n - 1 - k) for k in range(n))
    if (lhs - rhs) % n:
        return _fail(f"2*sum = {lhs % n} (mod {n})", f"27*sum = {rhs % n} (mod {n})")
    return _ok()


# ---------------------------------------------------------------------------
# Checkers: the LEM-3.x / EQ-3.x family
# ---------------------------------------------------------------------------

def _check_lem_3_1_a(point):
    b, c, n = point
    lhs = b * _S31.at(n, (b, c))
    rhs = n * seq.gen_trinomial(n, b, c) * seq.gen_trinomial(n - 1, b, c)
    if lhs != rhs:
        return _fail(f"b*alt-sum = {lhs}", f"n*T_n*T_(n-1) = {rhs}")
    return _ok()


def _check_lem_3_1_b(point):
    b, c, k = point
    lhs = seq.gen_trinomial(k, b, c) ** 2
    rhs = _hom_eval(_T2_ROW.at(k), c, b * b - 4 * c)
    if lhs != rhs:
        return _fail(f"T_k^2 = {lhs}", f"sum = {rhs}")
    return _ok()


def _sum_3_3(n: int) -> int:
    cat = seq.catalan_values(n)
    return sum(seq.binomial(n - 1, k) * seq.binomial(-n - 1, k) * cat[k]
               * 3 ** (n - 1 - k) * _a_coeff(n, k) for k in range(n))


def _check_lem_3_2(point):
    n = point
    lhs = 6 * _TT_SUM.at(n)
    rhs = (-1) ** n * n * _sum_3_3(n)
    if lhs != rhs:
        return _fail(f"6*sum k(k+1)(8k+9)T_k*T_(k+1) = {lhs}", f"closed form = {rhs}")
    return _ok()


def _check_lem_3_3(point):
    n = point
    total = _sum_3_3(n)
    ok, rem = _divides(total, n * n - 1)
    if not ok:
        return _fail(f"sum = {rem} (mod {n * n - 1})", "0 (mod n^2-1)")
    return _ok()


def _check_eq_3_partial(point):
    j, m = point
    lhs = 4 * sum((k - 1) * (8 * k + 1) * 3 ** (k - 1 - j) for k in range(j + 1, m + 1))
    rhs = 3 ** (m - j) * (16 * m * m - 30 * m + 21) - (16 * j * j - 30 * j + 21)
    if lhs != rhs:
        return _fail(f"4*partial sum = {lhs}", f"closed form = {rhs}")
    return _ok()


def _eq_3_4_sum(n: int) -> int:
    """9/2 times EQ-3.4's right side: (n+k)!(2k)!/((n-k-1)!k!^4(k+1)) = C(n+k,2k+1)C(2k,k)C(2k+1,k)."""
    return sum(_a_coeff(n, k) * (-3) ** (n - k) * comb(n + k, 2 * k + 1)
               * comb(2 * k, k) * comb(2 * k + 1, k) for k in range(n))


def _check_eq_3_4(point):
    n = point
    c1 = 16 * n * n - 30 * n + 21
    # the inner row sum_l C(k+l,2l)C(2l,l)^2(-3)^(k-l) is LEM-3.1.b's row k at (c, d) = (1, -3)
    lhs = sum((2 * k + 1) * (3 ** (n - k) * c1 - (16 * k * k - 30 * k + 21))
              * _hom_eval(row, 1, -3) for k, row in enumerate(_T2_ROW.prefix(n)))
    total = _eq_3_4_sum(n)
    if 9 * lhs != 2 * total:
        return _fail(f"double sum = {lhs}", f"telescoped form = {Fraction(2 * total, 9)}")
    return _ok()


def _check_lem_3_4(point):
    a, bexp, n = point
    cb = [comb(2 * k, k) for k in range(n)]
    total = sum(seq.binomial(n - 1, k) ** a * seq.binomial(-n - 1, k) ** bexp
                * cb[k] * (k + 2) * 3 ** (n - 1 - k) for k in range(n))
    ok, rem = _divides(total, 2 * n)
    if not ok:
        return _fail(f"sum = {rem} (mod {2 * n})", "0 (mod 2n)")
    return _ok()


# ---------------------------------------------------------------------------
# Checkers: the LEM-4.x / EQ-4.x family
# ---------------------------------------------------------------------------

def _check_lem_4_1(point):
    b, c, n = point
    lhs = n * seq.gen_trinomial(n, b, c) * seq.gen_trinomial(n - 1, b, c)
    rhs = b * _hom_eval([(n - j) * w for j, w in enumerate(_T2_ROW.at(n)[:n])], c, b * b - 4 * c)
    if lhs != rhs:
        return _fail(f"n*T_n*T_(n-1) = {lhs}", f"b*sum = {rhs}")
    return _ok()


def _check_eq_4_2(point):
    j, m = point
    lhs = sum((-1) ** (m - 1 - k) * (2 * k + 1) * comb(k + j, 2 * j) for k in range(j, m))
    rhs = (m - j) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"alt partial sum = {lhs}", f"(m-j)*C(m+j,2j) = {rhs}")
    return _ok()


def _check_lem_4_2(point):
    n, k = point
    value = (n + k + 1) * comb(n + k, k) * comb(n + 1, k + 1) * comb(2 * k, k + 1)
    divisor = n * (n + 1) * (n + 2) // gcd(2, n)
    ok, rem = _divides(value, divisor)
    if not ok:
        return _fail(f"product = {rem} (mod {divisor})", "0 (mod n(n+1)(n+2)/gcd(2,n))")
    return _ok()


def _check_lem_4_3(point):
    n = point
    ok, rem = _divides(6 * comb(2 * n, n), n + 2)
    if not ok:
        return _fail(f"6*C(2n,n) = {rem} (mod {n + 2})", "0 (mod n+2)")
    return _ok()


def _check_lem_4_4_a(point):
    n, k = point
    lhs = seq.w_coeff(n, k)
    rhs = sum(comb(n - j, k - j) * seq.narayana(n, j) for j in range(1, k + 1))
    if lhs != rhs:
        return _fail(f"w(n,k) = {lhs}", f"binomial transform of N(n,*) = {rhs}")
    return _ok()


def _check_lem_4_4_b(point):
    n, k = point
    lhs = seq.narayana(n, k)
    rhs = sum(comb(n - j, k - j) * (-1) ** (k - j) * seq.w_coeff(n, j)
              for j in range(1, k + 1))
    if lhs != rhs:
        return _fail(f"N(n,k) = {lhs}", f"inverse transform of w(n,*) = {rhs}")
    return _ok()


def _check_lem_4_5(point):
    n = point
    lhs = _W_POLY.at(n, 1)
    rhs = _S_POLY.at(n)
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _ok()


def _check_lem_4_6(point):
    n = point
    lhs = Poly((1, 2)) * _P46.at(n)
    rhs = _W_POLY.at(n, 1) * _W_POLY.at(n + 1, 1) * (n * (n + 1) * (n + 2))
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _ok()


def _check_rec_w(point):
    n = point
    lhs = _W_POLY.at(n + 2, 1) * (n + 3)
    rhs = Poly((1, 2)) * (2 * n + 3) * _W_POLY.at(n + 1, 1) - _W_POLY.at(n, 1) * n
    if lhs != rhs:
        return _fail(lhs.render(), rhs.render())
    return _ok()


def _check_eq_4_10(point):
    delta, j, m = point
    lhs = 2 * (j + delta + 1) * sum(k ** (2 * delta) * (k - j) * comb(k + j, 2 * j)
                                    for k in range(j + 1, m + 1))
    rhs = m ** delta * (m + 1) ** delta * (m - j) * (m + j + 1) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"2(j+d+1)*partial sum = {lhs}", f"closed form = {rhs}")
    return _ok()


def _eq_4_11_sum(b: int, c: int, delta: int, n: int) -> tuple[int, int]:
    """(L, 2L times EQ-4.11's closed form); each denominator j+delta+1 divides L = lcm(1..n+delta)."""
    big_l, row = _EQ411_ROW.at(n, delta)
    return big_l, b * (n * (n + 1)) ** (delta + 1) * _hom_eval(row, c, b * b - 4 * c)


def _check_eq_4_11(point):
    b, c, delta, n = point
    lhs = _S411.at(n, (b, c, delta))
    big_l, total = _eq_4_11_sum(b, c, delta, n)
    if 2 * big_l * lhs != total:
        return _fail(f"weighted T-sum = {lhs}", f"closed form = {Fraction(total, 2 * big_l)}")
    return _ok()


def _check_eq_4_12(point):
    j, m = point
    lhs = (j + 1) * sum((2 * k + 1) * comb(k + j, 2 * j) for k in range(j, m + 1))
    rhs = (m + 1) * (m + j + 1) * comb(m + j, 2 * j)
    if lhs != rhs:
        return _fail(f"(j+1)*partial sum = {lhs}", f"closed form = {rhs}")
    return _ok()


def _check_eq_4_13(point):
    n = point
    lhs = _S110_POLY.at(n)
    acc = ZERO
    ypow = ONE
    for k in range(1, n + 1):
        acc = acc + ypow * ((n + k + 1) * comb(n + 1, k + 1) * comb(n + k, k)
                            * comb(2 * k, k + 1))
        ypow = ypow * _Y
    if lhs != acc:
        return _fail(lhs.render(), acc.render())
    return _ok()


# sum_{k=1..n} k(k+1)(2k+1) s_k(x)^2 as a polynomial
_S110_POLY = _Acc(1, lambda prev, n, _: prev
                  + _S_POLY.at(n) * _S_POLY.at(n) * (n * (n + 1) * (2 * n + 1)), init=ZERO)


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
    target = seq.gen_motzkin(n, b, c) << n
    if v != 0 or u != target:
        return _fail(f"2^n*sqrt(d)^n*s_(n+1)(x) = {u} + {v}*sqrt({d})",
                     f"2^n*M_n(b,c) = {target}")
    return _ok()


# ---------------------------------------------------------------------------
# Checkers: the W sequence and the integrality conjectures
# ---------------------------------------------------------------------------

def _check_rec_W(point):
    n = point
    w = [seq.motzkin_analog_w(n + i) for i in range(4)]
    lhs = (n + 3) * w[3]
    rhs = (3 * n + 7) * w[2] + (n - 5) * w[1] - 3 * (n + 1) * w[0]
    if lhs != rhs:
        return _fail(f"(n+3)W_(n+3) = {lhs}", f"recurrence rhs = {rhs}")
    return _ok(seq.motzkin_analog_w(n))


def _check_conj_5_1_a(point):
    n = point
    total = _SW52.at(n)
    if total % (2 * n) != n % (2 * n):
        return _fail(f"sum = {total % (2 * n)} (mod {2 * n})", f"n = {n % (2 * n)} (mod 2n)")
    return _ok()


def _check_conj_5_1_b(point):
    p = point
    total = _SW52.at(p)
    if total % p:
        return _fail(f"sum = {total}", f"0 (mod p = {p}); p must divide the sum")
    quotient = total // p
    rhs = (24 + 10 * modular.legendre(-1, p) - 9 * modular.legendre(p, 3)
           - 18 * modular.legendre(3, p))
    if (quotient - rhs) % (p * p):
        return _fail(f"(sum/p) = {quotient % (p * p)} (mod p^2)",
                     f"symbol side = {rhs % (p * p)} (mod p^2)")
    return _ok()


def _check_rem_5_1(point):
    p = point
    total = _SW51.at(p)
    if total % p != 2 % p:
        return _fail(f"sum W_k^2 = {total % p} (mod {p})", "2 (mod p)")
    return _ok()


class InvalidSetting(ValueError):
    """An environment variable read by the claims has an unsupported value."""


def conj_5_9_prefactor() -> str:
    """Interpretation switch for the ambiguous (5.9) prefactor."""
    value = os.environ.get("MOTZKINLAB_CONJ59_PREFACTOR", "gcd(2,m-1,n)")
    if value not in ("gcd(2,m-1,n)", "gcd(2^(m-1),n)"):
        raise InvalidSetting(f"unsupported MOTZKINLAB_CONJ59_PREFACTOR {value!r}")
    return value


def _integrality_witness(poly: Poly, g: int, den: int):
    """First coefficient of poly * g/den that is not an integer, as
    (index, reduced fraction), or None when poly * g/den is in Z[x]."""
    for i, coef in enumerate(poly.coeffs):
        if coef * g % den:
            return i, Fraction(coef * g, den)
    return None


def _check_conj_5_2(point):
    part, h, m, n = point
    if part == "5.4":
        total = _P52.at(n, (h, m))
        g = gcd(2, n)
    elif part == "5.5":
        total = _P52_ALT.at(n, (1, m))
        g = gcd(2, n)
    else:  # "5.6", h > 1
        total = _P52_ALT.at(n, (h, m))
        g = 1
    witness = _integrality_witness(total, g, n * (n + 1) * (n + 2))
    if witness is not None:
        i, coef = witness
        return _fail(f"coefficient of x^{i} = {coef}", "an integer")
    return _ok()


def _check_conj_5_3(point):
    part, h, m, n = point
    if part == "5.8":
        total = _P53.at(n, (h, m))
        g = gcd(2, n)
    else:  # "5.9"
        total = _P53_ALT.at(n, (h, m))
        if conj_5_9_prefactor() == "gcd(2,m-1,n)":
            g = gcd(2, m - 1, n)
        else:
            g = gcd(2 ** (m - 1), n)
    witness = _integrality_witness(total, g, n * (n + 1) * (n + 2))
    if witness is not None:
        i, coef = witness
        return _fail(f"coefficient of x^{i} = {coef}", "an integer")
    return _ok()


# ---------------------------------------------------------------------------
# Checkers: mutation fixtures (must produce counterexamples)
# ---------------------------------------------------------------------------

def _check_mut_thm_1_1_i(point):
    n = point
    total = 2 * _WSUM_M_MUT.at(n)
    ok, rem = _divides(total, n)
    if not ok:
        return _fail(f"2*sum (2k+2)M_k^2 = {rem} (mod {n})", "0 (mod n)")
    return _ok()


def _check_mut_thm_1_2(point):
    n = point
    ok, rem = _divides(6 * _TT_SUM_MUT.at(n), n * n * (n * n - 1))
    if not ok:
        return _fail(f"6*sum k(k+1)(8k+10)T_k*T_(k+1): remainder {rem}",
                     "0 (mod n^2(n^2-1))")
    return _ok()


def _check_mut_id_1_8(point):
    n = point
    lhs = _S18_MUT.at(n)
    rhs = n * (n + 1) * (n + 2) * seq.motzkin(n) * seq.motzkin(n - 1)
    if lhs != rhs:
        return _fail(f"mutated sum = {lhs}", f"n(n+1)(n+2)*M_n*M_(n-1) = {rhs}")
    return _ok()


def _check_mut_lem_2_3(point):
    n = point
    remainder = _mod_q_integer(_q_sum_2_9(n, 1, 1, weight_shift=3))
    if remainder:
        return _fail(f"mutated sum mod [n]_q = {remainder.render('q')}", "0")
    return _ok()


# ---------------------------------------------------------------------------
# Points for the composite conjecture claims
# ---------------------------------------------------------------------------

def _points_conj_5_2(rng: ParamRange):
    for h in range(1, rng.h_max + 1):
        for m in range(1, rng.m_max + 1):
            for n in range(1, rng.n_max + 1):
                yield ("5.4", h, m, n)
    for m in range(1, rng.m_max + 1):
        for n in range(1, rng.n_max + 1):
            yield ("5.5", 1, m, n)
    for h in range(2, rng.h_max + 1):
        for m in range(1, rng.m_max + 1):
            for n in range(1, rng.n_max + 1):
                yield ("5.6", h, m, n)


def _points_conj_5_3(rng: ParamRange):
    for part in ("5.8", "5.9"):
        for h in range(1, rng.h_max + 1):
            for m in range(1, rng.m_max + 1):
                for n in range(1, rng.n_max + 1):
                    yield (part, h, m, n)


def _points_conj_5_1_b(rng: ParamRange):
    if rng.prime_lo <= 3 <= rng.prime_hi:
        yield Skip({"p": 3}, "the symbols (p/3) and (3/p) vanish at p = 3; "
                             "the congruence is outside their domain")
    yield from _prime_points(rng)


def _points_lem_2_3(rng: ParamRange):
    # exponent a = 0 falsifies the congruence (already at q = 1), so the
    # valid grid starts at a = 1; b = 0 is fine
    for a in range(1, rng.qexp_a_max + 1):
        for bexp in range(0, rng.qexp_b_max + 1):
            for n in range(1, rng.n_max + 1):
                yield (a, bexp, n)


def _points_lem_3_4(rng: ParamRange):
    for a in range(0, rng.qexp_a_max + 1):
        for bexp in range(0, rng.qexp_b_max + 1):
            if (a + bexp) % 2:
                continue
            for n in range(1, rng.n_max + 1):
                yield (a, bexp, n)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    statement: str
    param_names: tuple[str, ...]
    points: Callable[[ParamRange], Iterable]
    check: Callable
    default_range: ParamRange
    deep_range: ParamRange | None = None
    range_keys: tuple[str, ...] = ("n_max",)
    notes: Callable[[ParamRange], dict] | None = None


_BASE = ParamRange()

CLAIMS: dict[str, Claim] = {}


def _register(claim: Claim) -> Claim:
    if claim.id in CLAIMS:
        raise ValueError(f"duplicate claim id {claim.id}")
    CLAIMS[claim.id] = claim
    return claim


def _mk(claim_id, kind, statement, param_names, points, check, *,
        deep=None, range_keys=("n_max",), notes=None, **range_overrides):
    rng = _BASE.override(**range_overrides) if range_overrides else _BASE
    deep_rng = rng.override(**deep) if deep else None
    return _register(Claim(claim_id, kind, statement, param_names, points, check,
                           rng, deep_rng, range_keys, notes))


_GRID_KEYS = ("n_max", "b_set", "c_set")
_PRIME_KEYS = ("prime_lo", "prime_hi")

_mk("THM-1.1.i", "integrality",
    "2/n * sum_{k=1..n} (2k+1)*M_k^2 is an integer",
    ("n",), _n_points(), _check_thm_1_1_i,
    deep={"n_max": 2000})
_mk("THM-1.1.ii", "congruence",
    "sum_{k=0..p-1} (2k+1)*M_k^2 = 12p(p/3) (mod p^2) for primes p > 3",
    ("p",), _prime_points, _check_thm_1_1_ii, range_keys=_PRIME_KEYS)
_mk("THM-1.2", "divisibility",
    "n^2(n^2-1)/6 divides sum_{k=0..n-1} k(k+1)(8k+9)*T_k*T_{k+1}",
    ("n",), _n_points(), _check_thm_1_2,
    deep={"n_max": 1000})
_mk("THM-1.3.a", "divisibility",
    "b*n(n+1)/2 divides sum_{k=1..n} k*T_k(b,c)*T_{k-1}(b,c)*d^(n-k)",
    ("b", "c", "n"), _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_a,
    n_max=100, range_keys=_GRID_KEYS)
_mk("THM-1.3.b", "divisibility",
    "b*n^2(n+1)^2/4 divides 3*sum_{k=1..n} k^3*T_k(b,c)*T_{k-1}(b,c)*d^(n-k)",
    ("b", "c", "n"), _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_b,
    n_max=100, range_keys=_GRID_KEYS)
_mk("THM-1.3.c", "integrality",
    "gcd(2,n)/(n(n+1)(n+2)) * sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k(b,c)^2*d^(n-1-k) is an integer",
    ("b", "c", "n"), _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_c,
    n_max=100, range_keys=_GRID_KEYS)
_mk("THM-1.3.d", "identity",
    "sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k(b,c)^2*(-d)^(n-1-k) = n(n+1)(n+2)*M_n*M_{n-1}/b, an integer",
    ("b", "c", "n"), _grid_points(d_nonzero=True, b_nonzero=True), _check_thm_1_3_d,
    n_max=100, range_keys=_GRID_KEYS)
_mk("ID-1.8", "identity",
    "sum_{k=0..n-1} (k+1)(k+2)(2k+3)*M_k^2*3^(n-1-k) = n(n+1)(n+2)*M_n*M_{n-1}",
    ("n",), _n_points(), _check_id_1_8, deep={"n_max": 500})
_mk("COR-1.1.ab", "divisibility",
    "3n(n+1)/2 divides sum k*D_k*D_{k-1} and n^2(n+1)^2/4 divides sum k^3*D_k*D_{k-1}",
    ("n",), _n_points(), _check_cor_1_1_ab, deep={"n_max": 300})
_mk("COR-1.1.c", "divisibility",
    "n(n+1)(n+2)/gcd(2,n) divides sum_{k=1..n} k(k+1)(2k+1)*s_k^2",
    ("n",), _n_points(), _check_cor_1_1_c, deep={"n_max": 300})
_mk("COR-1.1.d", "identity",
    "1/(n(n+1)(n+2)) * sum (-1)^(n-k) k(k+1)(2k+1)*s_k^2 = s_n*s_{n+1}/3, an integer",
    ("n",), _n_points(), _check_cor_1_1_d, deep={"n_max": 300})

_mk("ID-2.3", "polynomial-identity",
    "S_n(x) = (x+1)*s_n(x)",
    ("n",), _n_points(), _check_id_2_3, n_max=50)
_mk("LEM-2.1.a", "polynomial-identity",
    "n(n+1)*s_n(x)^2 = sum_{k=1..n} C(n+k,2k)C(2k,k)C(2k,k+1)*(x(x+1))^(k-1)",
    ("n",), _n_points(), _check_lem_2_1_a, n_max=50)
_mk("LEM-2.1.b", "identity",
    "M_n(b,c) = sqrt(d)^n * s_{n+1}((b/sqrt(d)-1)/2), checked times 2^n in Z[y]/(y^2-d)",
    ("b", "c", "n"), _grid_points(d_nonzero=True, n_lo=0), _check_lem_2_1_b,
    n_max=15, range_keys=_GRID_KEYS)
_mk("REM-2.1", "identity",
    "M_n(b,c)^2 = 1/((n+1)(n+2)) * sum_{k=1..n+1} C(n+k+1,2k)C(2k,k)C(2k,k+1)*c^(k-1)*d^(n+1-k)",
    ("b", "c", "n"), _grid_points(d_nonzero=True, n_lo=0), _check_rem_2_1,
    n_max=60, range_keys=_GRID_KEYS)
_mk("LEM-2.2", "identity",
    "sum_{k=1..n} (2k+1)M_k^2 equals its single-sum telescoped form",
    ("n",), _n_points(), _check_lem_2_2)
_mk("EQ-2.8", "identity",
    "double sum of F(k,l) = 1 + (4n+3)(-3)^(n+1) + factorial-form single sum",
    ("n",), _n_points(), _check_eq_2_8, n_max=100)
_mk("LEM-2.3", "polynomial-divisibility",
    "[n]_q divides sum_k [n+1 k]^a [n+k k]^b [2k k] [k+2]_q (-[3]_q)^(n-1-k)  (a >= 1)",
    ("a", "b", "n"), _points_lem_2_3, _check_lem_2_3,
    n_max=40, range_keys=("n_max", "qexp_a_max", "qexp_b_max"),
    notes=lambda rng: {"a_min": 1,
                       "reason": "exponent a = 0 falsifies the divisibility "
                                 "(e.g. n = 5: sum = 336 is not divisible by 5 at q = 1)"})
_mk("LEM-2.4", "congruence",
    "sum_{k=1..p-1} C(2k,k)/(k*3^k) = (3^(p-1)-1)/p (mod p) for primes p > 3",
    ("p",), _prime_points, _check_lem_2_4, range_keys=_PRIME_KEYS)
_mk("EQ-2.11", "congruence",
    "2*sum (2k+1)M_k^2 = 27*sum C(n+1,k)C(n+k,k)C(2k,k)(k+2)(-3)^(n-1-k) (mod n)",
    ("n",), _n_points(), _check_eq_2_11)

_mk("LEM-3.1.a", "identity",
    "b * sum_{k=0..n-1} (2k+1)T_k(b,c)^2(-d)^(n-1-k) = n*T_n(b,c)*T_{n-1}(b,c)",
    ("b", "c", "n"), _grid_points(), _check_lem_3_1_a,
    n_max=100, range_keys=_GRID_KEYS)
_mk("LEM-3.1.b", "identity",
    "T_k(b,c)^2 = sum_j C(k+j,2j)C(2j,j)^2*c^j*d^(k-j)",
    ("b", "c", "k"), _grid_points(n_lo=0), _check_lem_3_1_b,
    n_max=100, range_keys=_GRID_KEYS)
_mk("LEM-3.2", "identity",
    "sum k(k+1)(8k+9)T_k*T_{k+1} = ((-1)^n n/6) * sum C(n-1,k)C(-n-1,k)Cat_k*3^(n-1-k)*a(n,k)",
    ("n",), _n_points(), _check_lem_3_2, n_max=100)
_mk("EQ-3.partial", "identity",
    "sum_{k=j+1..m} (k-1)(8k+1)3^(k-1-j) = (3^(m-j)(16m^2-30m+21) - (16j^2-30j+21))/4",
    ("j", "m"), _triangle_points(), _check_eq_3_partial, n_max=60)
_mk("EQ-3.4", "identity",
    "double sum of the weighted T-square telescoping equals its factorial single-sum form",
    ("n",), _n_points(), _check_eq_3_4, n_max=100)
_mk("LEM-3.3", "divisibility",
    "n^2 - 1 divides sum C(n-1,k)C(-n-1,k)Cat_k*3^(n-1-k)*a(n,k)",
    ("n",), _n_points(), _check_lem_3_3, n_max=100)
_mk("LEM-3.4", "divisibility",
    "2n divides sum C(n-1,k)^a C(-n-1,k)^b C(2k,k)(k+2)3^(n-1-k) for a+b even",
    ("a", "b", "n"), _points_lem_3_4, _check_lem_3_4,
    n_max=80, qexp_a_max=3, qexp_b_max=3,
    range_keys=("n_max", "qexp_a_max", "qexp_b_max"))

_mk("LEM-4.1", "identity",
    "n*T_n(b,c)*T_{n-1}(b,c) = b*sum_j (n-j)C(n+j,2j)C(2j,j)^2*c^j*d^(n-1-j)",
    ("b", "c", "n"), _grid_points(), _check_lem_4_1,
    n_max=100, range_keys=_GRID_KEYS)
_mk("EQ-4.2", "identity",
    "sum_{k=j..m-1} (-1)^(m-1-k)(2k+1)C(k+j,2j) = (m-j)C(m+j,2j)",
    ("j", "m"), _triangle_points(), _check_eq_4_2, n_max=60)
_mk("LEM-4.2", "divisibility",
    "n(n+1)(n+2)/gcd(2,n) divides (n+k+1)C(n+k,k)C(n+1,k+1)C(2k,k+1)",
    ("n", "k"), _nk_points(), _check_lem_4_2, n_max=100)
_mk("LEM-4.3", "divisibility",
    "n+2 divides 6*C(2n,n)",
    ("n",), _n_points(lo=0), _check_lem_4_3)
_mk("LEM-4.4.a", "identity",
    "w(n,k) = sum_j C(n-j,k-j)*N(n,j)",
    ("n", "k"), _nk_points(), _check_lem_4_4_a, n_max=100)
_mk("LEM-4.4.b", "identity",
    "N(n,k) = sum_j C(n-j,k-j)(-1)^(k-j)*w(n,j)",
    ("n", "k"), _nk_points(), _check_lem_4_4_b, n_max=100)
_mk("LEM-4.5", "polynomial-identity",
    "w_n(x) = s_n(x)",
    ("n",), _n_points(), _check_lem_4_5, n_max=60)
_mk("LEM-4.6", "polynomial-identity",
    "(2x+1)*sum (-1)^(n-k) k(k+1)(2k+1)w_k(x)^2 = n(n+1)(n+2)*w_n(x)*w_{n+1}(x)",
    ("n",), _n_points(), _check_lem_4_6, n_max=50)
_mk("REC-w", "polynomial-identity",
    "(n+3)*w_{n+2}(x) = (2x+1)(2n+3)*w_{n+1}(x) - n*w_n(x)",
    ("n",), _n_points(), _check_rec_w, n_max=50,
    # the offset is pinned at 0; the notes keep the form reports have always carried
    notes=lambda rng: {"index_offset": 0,
                       "form": "(n+3)*w[n+2+off] = (2x+1)(2n+3)*w[n+1+off] - n*w[n+off]"})
_mk("EQ-4.10", "identity",
    "sum_{k=j+1..m} k^(2d)(k-j)C(k+j,2j) = (m^d(m+1)^d/2)((m-j)(m+j+1)/(j+d+1))C(m+j,2j)",
    ("delta", "j", "m"), _triangle_points(deltas=(0, 1)), _check_eq_4_10, n_max=60)
_mk("EQ-4.11", "identity",
    "sum_k k^(2d+1)T_k*T_{k-1}*d^(n-k) = (b/2)(n(n+1))^(d+1)*sum_j ... C(2j,j)/(j+d+1) ...",
    ("b", "c", "delta", "n"), _grid_points(deltas=(0, 1)), _check_eq_4_11,
    n_max=100, range_keys=_GRID_KEYS)
_mk("EQ-4.12", "identity",
    "sum_{k=j..m} (2k+1)C(k+j,2j) = ((m+1)(m+j+1)/(j+1))C(m+j,2j)",
    ("j", "m"), _triangle_points(strict=False), _check_eq_4_12, n_max=60)
_mk("EQ-4.13", "polynomial-identity",
    "sum k(k+1)(2k+1)s_k(x)^2 = sum (n+k+1)C(n+1,k+1)C(n+k,k)C(2k,k+1)(x(x+1))^(k-1)",
    ("n",), _n_points(), _check_eq_4_13, n_max=50)

_mk("REC-W", "identity",
    "(n+3)W_{n+3} = (3n+7)W_{n+2} + (n-5)W_{n+1} - 3(n+1)W_n",
    ("n",), _n_points(lo=0), _check_rec_W, n_max=1000)
_mk("CONJ-5.1.a", "congruence",
    "sum_{k=0..n-1} (8k+9)W_k^2 = n (mod 2n)",
    ("n",), _n_points(), _check_conj_5_1_a, deep={"n_max": 2000})
_mk("CONJ-5.1.b", "congruence",
    "(1/p)*sum_{k=0..p-1} (8k+9)W_k^2 = 24 + 10(-1/p) - 9(p/3) - 18(3/p) (mod p^2)",
    ("p",), _points_conj_5_1_b, _check_conj_5_1_b,
    prime_hi=500, range_keys=_PRIME_KEYS)
_mk("REM-5.1", "congruence",
    "sum_{k=0..p-1} W_k^2 = 2 (mod p) for primes p > 3",
    ("p",), _prime_points, _check_rem_5_1,
    prime_hi=500, range_keys=_PRIME_KEYS)
_mk("CONJ-5.2.abc", "integrality",
    "gcd-scaled sums of k(k+1)(2k+1)*w_k^(h)(x)^m (plain and alternating) lie in Z[x]",
    ("part", "h", "m", "n"), _points_conj_5_2, _check_conj_5_2,
    n_max=40, range_keys=("n_max", "h_max", "m_max"))
_mk("CONJ-5.3.ab", "integrality",
    "gcd-scaled sums of k(k+1)(2k+1)*S_k^(h)(x)^m (plain and alternating) lie in Z[x]",
    ("part", "h", "m", "n"), _points_conj_5_3, _check_conj_5_3,
    n_max=40, range_keys=("n_max", "h_max", "m_max"),
    notes=lambda rng: {"prefactor_5_9": conj_5_9_prefactor()})

_mk("MUT-THM-1.1.i", "divisibility",
    "mutation fixture: weight (2k+1) perturbed to (2k+2); must yield a counterexample",
    ("n",), _n_points(), _check_mut_thm_1_1_i, n_max=25)
_mk("MUT-THM-1.2", "divisibility",
    "mutation fixture: weight (8k+9) perturbed to (8k+10); must yield a counterexample",
    ("n",), _n_points(), _check_mut_thm_1_2, n_max=25)
_mk("MUT-ID-1.8", "identity",
    "mutation fixture: weight (2k+3) perturbed to (2k+4); must yield a counterexample",
    ("n",), _n_points(), _check_mut_id_1_8, n_max=25)
_mk("MUT-LEM-2.3", "polynomial-divisibility",
    "mutation fixture: [k+2]_q perturbed to [k+3]_q at a = b = 1; must yield a counterexample",
    ("n",), _n_points(), _check_mut_lem_2_3, n_max=25)
