"""Claim registry and verification engine tests.

Pinned hand-computed points, small-range verification of every claim,
mutation sensitivity, skip/counterexample bookkeeping, and determinism
under parallelism.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from math import comb, factorial, gcd, isqrt
from pathlib import Path

import pytest

import motzkinlab
from motzkinlab import claims, modular, sequences as seq, verify
from motzkinlab.claims import (CLAIMS, NonIntegral, _mod_q_integer, _q_divides_2_9,
                               _q_sum_2_9, s_quotient, t_quotient)
from motzkinlab.polynomials import (NotDivisible, Poly, ZERO, _Q_ROWS, _fold, _mul_coeffs,
                                    _Packed, big_schroder_poly, q_binomial, q_integer, s_poly,
                                    w_poly)
from motzkinlab.reports import InvalidRange, ParamRange, reports_to_csv, reports_to_json
from motzkinlab.verify import (SUITES, UnknownClaim, UnknownSuite, run_suite,
                               verify_claim)

S_GOLDEN = [6, 23, 90, 432, 2286, 13176, 80418, 513764, 3400518, 23167311]
T_GOLDEN = [51, 271, 1398, 8505, 54387, 367551, 2570931, 18510739, 136282347]


class TestGoldenQuotients:
    def test_s_values(self):
        assert [s_quotient(n) for n in range(1, 11)] == S_GOLDEN

    def test_t_values(self):
        assert [t_quotient(n) for n in range(2, 11)] == T_GOLDEN

    def test_s_cross_check(self):
        for n in range(1, 201):
            total = sum((2 * k + 1) * seq.motzkin(k) ** 2 for k in range(1, n + 1))
            assert s_quotient(n) * n == 2 * total

    def test_t_cross_check(self):
        for n in range(2, 201):
            total = sum(k * (k + 1) * (8 * k + 9)
                        * seq.central_trinomial(k) * seq.central_trinomial(k + 1)
                        for k in range(n))
            assert t_quotient(n) * (n * n * (n * n - 1)) == 6 * total

    def test_preconditions(self):
        with pytest.raises(ValueError):
            s_quotient(0)
        with pytest.raises(ValueError):
            t_quotient(1)


# The sequences from their defining sums, written out with math.comb.
@functools.cache
def _cat(j: int) -> int:
    return comb(2 * j, j) // (j + 1)


@functools.cache
def _m_bc(k: int, b: int, c: int) -> int:  # M_k(b, c); M_k = M_k(1, 1) = sum_j C(k, 2j) Cat_j
    return sum(comb(k, 2 * j) * _cat(j) * b ** (k - 2 * j) * c ** j for j in range(k // 2 + 1))


@functools.cache
def _t_bc(k: int, b: int, c: int) -> int:
    return sum(comb(k, 2 * j) * comb(2 * j, j) * b ** (k - 2 * j) * c ** j
               for j in range(k // 2 + 1))


@functools.cache
def _delannoy(k: int) -> int:
    return sum(comb(k, j) * comb(k + j, j) for j in range(k + 1))


@functools.cache
def _schroder_little(k: int) -> int:  # sum_j N(k, j) 2^(k-j), N the Narayana numbers
    return sum(comb(k, j) * comb(k, j - 1) // k * 2 ** (k - j) for j in range(1, k + 1))


@functools.cache
def _w(k: int) -> int:
    return sum(comb(k, 2 * j) * comb(2 * j, j) // (2 * j - 1) for j in range(k // 2 + 1))


# The three (b, c)-sums as Theorem 1.3 and Lemma 3.1.a state them.
def _msq_sum(b, c, sigma, e):
    return lambda n: sum((k + 1) * (k + 2) * (2 * k + e) * _m_bc(k, b, c) ** 2
                         * (sigma * (b * b - 4 * c)) ** (n - 1 - k) for k in range(n))


def _s411_sum(b, c, delta):
    return lambda n: sum(k ** (2 * delta + 1) * _t_bc(k, b, c) * _t_bc(k - 1, b, c)
                         * (b * b - 4 * c) ** (n - k) for k in range(1, n + 1))


def _s31_sum(b, c):
    return lambda n: sum((2 * k + 1) * _t_bc(k, b, c) ** 2 * (4 * c - b * b) ** (n - 1 - k)
                         for k in range(n))


# Each (running sum, constants) that a checker reads, with the sum as the
# claim states it.  Corollary 1.1's keys at (b, c) = (3, 2) are written with D_k
# and s_k, the MUT-* keys with their changed weight.
_KEYED_SUMS = [
    ("_WSUM_M", 1, lambda n: sum((2 * k + 1) * _m_bc(k, 1, 1) ** 2 for k in range(1, n + 1))),
    ("_WSUM_M", 2, lambda n: sum((2 * k + 2) * _m_bc(k, 1, 1) ** 2 for k in range(1, n + 1))),
    *[("_TT_SUM", e, lambda n, e=e: sum(k * (k + 1) * (8 * k + e) * _t_bc(k, 1, 1)
                                        * _t_bc(k + 1, 1, 1) for k in range(n)))
      for e in (9, 10)],
    *[("_MSQ_SUM", (b, c, sigma, e), _msq_sum(b, c, sigma, e))
      for b, c, sigma, e in ((2, -1, 1, 3), (2, -1, -1, 3), (-3, 1, 1, 3), (-3, 1, -1, 3),
                             (1, 1, -1, 3), (1, 1, -1, 4))],
    *[("_MSQ_SUM", (3, 2, sigma, 3),
       lambda n, sigma=sigma: sum(sigma ** (n - k) * k * (k + 1) * (2 * k + 1)
                                  * _schroder_little(k) ** 2 for k in range(1, n + 1)))
      for sigma in (1, -1)],
    *[("_S411", (b, c, delta), _s411_sum(b, c, delta))
      for b, c in ((2, -1), (-3, 1), (2, 1)) for delta in (0, 1)],
    *[("_S411", (3, 2, delta),
       lambda n, delta=delta: sum(k ** (2 * delta + 1) * _delannoy(k) * _delannoy(k - 1)
                                  for k in range(1, n + 1)))
      for delta in (0, 1)],
    *[("_S31", (b, c), _s31_sum(b, c))
      for b, c in ((2, -1), (-3, 1), (2, 1))],
    *[("_WSUM_W", (alpha, beta),
       lambda n, alpha=alpha, beta=beta: sum((alpha * k + beta) * _w(k) ** 2 for k in range(n)))
      for alpha, beta in ((8, 9), (0, 1))],
    # the triangle partial sums, keyed by j (and delta) and indexed by m
    *[("_S42", j, lambda m, j=j: sum((-1) ** (m - 1 - k) * (2 * k + 1) * comb(k + j, 2 * j)
                                     for k in range(j, m)))
      for j in (0, 5)],
    *[("_S410", (j, delta), lambda m, j=j, delta=delta: sum(
        k ** (2 * delta) * (k - j) * comb(k + j, 2 * j) for k in range(j + 1, m + 1)))
      for j in (0, 5) for delta in (0, 1)],
    *[("_S412", j, lambda m, j=j: sum((2 * k + 1) * comb(k + j, 2 * j) for k in range(j, m + 1)))
      for j in (0, 5)],
    *[("_S3P", j, lambda m, j=j: sum((k - 1) * (8 * k + 1) * 3 ** (k - 1 - j)
                                     for k in range(j + 1, m + 1)))
      for j in (0, 5)],
]


# The (b, c)-sums are keyed by |b|, since T_k(-b, c) = (-1)^k T_k(b, c), M_k likewise,
# and d = b^2 - 4c.  For the constants that a checker reads, each entry gives its key,
# the half of a pair entry, and the sign of the sum at b: (b, c, sigma, e) name half
# (1 - sigma) // 2 of _MSQ_SUM's key (|b|, c, e), (b, c, delta) half delta of _S411's
# key (|b|, c), whose sum is odd in b, and (b, c) _S31's key (|b|, c).
_ENTRY_OF = {"_MSQ_SUM": lambda b, c, sigma, e: ((abs(b), c, e), (1 - sigma) // 2, 1),
             "_S411": lambda b, c, delta: ((abs(b), c), delta, -1 if b < 0 else 1),
             "_S31": lambda b, c: ((abs(b), c), None, 1)}


def _signed_read(acc: str, n: int, *constants) -> int:
    """The sum at n that ``constants`` name, b's sign included, read off its |b| entry."""
    key, half, sign = _ENTRY_OF[acc](*constants)
    entry = getattr(claims, acc).at(n, key)
    return sign * (entry if half is None else entry[half])


def _assert_reads_its_sum(acc, key, oracle, n_max):
    if acc in _ENTRY_OF:
        got = [_signed_read(acc, n, *key) for n in range(1, n_max + 1)]
    else:
        got = [getattr(claims, acc).at(n, key) for n in range(1, n_max + 1)]
    assert got == [oracle(n) for n in range(1, n_max + 1)], (acc, key)


@pytest.mark.parametrize("acc, key, oracle", _KEYED_SUMS,
                         ids=[f"{acc}-{key}" for acc, key, _ in _KEYED_SUMS])
def test_keyed_sum_matches_its_defining_sum(acc, key, oracle):
    _assert_reads_its_sum(acc, key, oracle, 60)


@pytest.mark.parametrize("b", range(-4, 5))
def test_signed_reads_of_the_bc_sums_are_their_defining_sums(b):
    # every (b, c) in [-4, 4]^2 and n <= 40, b <= 0 and e = 4 included: the sum at b
    # read off the |b| entry, negated for the odd sum at b < 0, is its defining sum
    for c in range(-4, 5):
        for delta in (0, 1):
            _assert_reads_its_sum("_S411", (b, c, delta), _s411_sum(b, c, delta), 40)
        for sigma in (1, -1):
            for e in (3, 4):
                _assert_reads_its_sum("_MSQ_SUM", (b, c, sigma, e), _msq_sum(b, c, sigma, e), 40)
        _assert_reads_its_sum("_S31", (b, c), _s31_sum(b, c), 40)


@pytest.mark.parametrize("family, h, poly", [
    ("_W_POLY", 1, w_poly), ("_W_POLY", 2, w_poly),
    ("_BIG_S_POLY", 1, big_schroder_poly), ("_BIG_S_POLY", 3, big_schroder_poly),
    ("_S_POLY", (), lambda k, _h: s_poly(k)),
])
def test_power_sum_pair_matches_the_sums_of_each_sign(family, h, poly):
    # one entry holds sum_{k=1..n} sign^k k(k+1)(2k+1) f_k^m for sign = 1 and -1
    for m in (1, 2, 3):
        sums = {1: ZERO, -1: ZERO}
        for n in range(1, 13):
            power = functools.reduce(lambda a, b: a * b, [poly(n, h)] * m)
            for sign in sums:
                sums[sign] = sums[sign] + power * (sign ** n * n * (n + 1) * (2 * n + 1))
            assert claims._POW_SUM.at(n, (getattr(claims, family), h, m)) == (sums[1], sums[-1])


class TestRegistry:
    # the suites in their reported order, written out independently of the
    # registry they are built from
    EXPECTED_SUITES = {
        "theorems": (
            "THM-1.1.i", "THM-1.1.ii", "THM-1.2",
            "THM-1.3.a", "THM-1.3.b", "THM-1.3.c", "THM-1.3.d",
            "COR-1.1.ab", "COR-1.1.c", "COR-1.1.d",
        ),
        "lemmas": (
            "LEM-2.1.a", "LEM-2.1.b", "LEM-2.2", "LEM-2.3", "LEM-2.4",
            "LEM-3.1.a", "LEM-3.1.b", "LEM-3.2", "LEM-3.3", "LEM-3.4",
            "LEM-4.1", "LEM-4.2", "LEM-4.3", "LEM-4.4.a", "LEM-4.4.b",
            "LEM-4.5", "LEM-4.6",
        ),
        "identities": (
            "ID-1.8", "ID-2.3", "REM-2.1", "EQ-2.8", "EQ-2.11",
            "EQ-3.partial", "EQ-3.4", "EQ-4.2", "EQ-4.10", "EQ-4.11",
            "EQ-4.12", "EQ-4.13", "REC-w", "REC-W",
        ),
        "conjectures": (
            "CONJ-5.1.a", "CONJ-5.1.b", "REM-5.1", "CONJ-5.2.abc", "CONJ-5.3.ab",
        ),
    }
    MUTATIONS = ("MUT-THM-1.1.i", "MUT-THM-1.2", "MUT-ID-1.8", "MUT-LEM-2.3")
    EXPECTED_IDS = {*MUTATIONS, *(cid for ids in EXPECTED_SUITES.values() for cid in ids)}

    def test_registry_is_exhaustive(self):
        assert set(CLAIMS) == self.EXPECTED_IDS

    def test_a_registered_id_cannot_register_again(self):
        claim = CLAIMS["THM-1.1.i"]
        with pytest.raises(ValueError, match="duplicate claim id THM-1.1.i"):
            claims._mk(claim.id, claim.suite, claim.statement, claim.grid, claim.check)
        assert CLAIMS["THM-1.1.i"] is claim

    def test_every_claim_has_kind_and_statement(self):
        # a claim's kind is its suite; only the mutation fixtures have none
        for claim in CLAIMS.values():
            assert (claim.suite is None) == claim.id.startswith("MUT-"), claim.id
            assert claim.statement

    def test_suites_are_the_registered_ones_in_order(self):
        for suite, ids in self.EXPECTED_SUITES.items():
            assert SUITES[suite] == ids, suite
            assert all(CLAIMS[cid].suite == suite for cid in ids)
        assert list(SUITES) == [*self.EXPECTED_SUITES, "all"]
        assert SUITES["all"] == sum(self.EXPECTED_SUITES.values(), ())

    def test_suites_cover_all_non_mutation_claims(self):
        in_suites = set(SUITES["all"])
        assert in_suites == {c for c in CLAIMS if not c.startswith("MUT-")}
        assert len(SUITES["all"]) == len(set(SUITES["all"]))

    # the claims that name their own --deep range; every other claim runs at
    # twice its default n_max with primes to 5000
    DEEP = {"THM-1.1.i": {"n_max": 2000}, "THM-1.2": {"n_max": 1000}, "ID-1.8": {"n_max": 500},
            "COR-1.1.ab": {"n_max": 300}, "COR-1.1.c": {"n_max": 300},
            "COR-1.1.d": {"n_max": 300}, "LEM-2.3": {"n_max": 120},
            "CONJ-5.1.a": {"n_max": 2000}, "CONJ-5.1.b": {"prime_hi": 500}}

    def test_deep_range_is_twice_the_default_unless_named(self):
        for claim in CLAIMS.values():
            rng = claim.default_range
            want = rng.override(**{"n_max": 2 * rng.n_max, "prime_hi": 5000,
                                   **self.DEEP.get(claim.id, {})})
            assert verify.effective_range(claim, deep=True) == want, claim.id


SMALL = {
    # fast per-claim override ranges for the everything-verifies sweep
    "THM-1.1.ii": {"prime_hi": 60},
    "LEM-2.4": {"prime_hi": 60},
    "REM-5.1": {"prime_hi": 60},
    "LEM-2.3": {"n_max": 10},
    "EQ-2.8": {"n_max": 15},
    "EQ-3.4": {"n_max": 15},
    "CONJ-5.2.abc": {"n_max": 10, "h_max": 2, "m_max": 2},
    "CONJ-5.3.ab": {"n_max": 10, "h_max": 2, "m_max": 2},
    "LEM-2.1.b": {"n_max": 8, "b_set": (1, 3, -2), "c_set": (-2, 0, 1, 2)},
}
GRID_SMALL = {"n_max": 15, "b_set": (-2, 1, 2, 3), "c_set": (-1, 0, 1, 2)}


@pytest.mark.parametrize("claim_id",
                         sorted(c for c in CLAIMS
                                if not c.startswith("MUT-") and c != "CONJ-5.1.b"))
def test_claim_verifies_on_small_range(claim_id):
    overrides = SMALL.get(claim_id)
    if overrides is None:
        overrides = dict(GRID_SMALL) if "b" in CLAIMS[claim_id].grid.names else {"n_max": 15}
        if "p" in CLAIMS[claim_id].grid.names:
            overrides = {"prime_hi": 60}
    report = verify_claim(claim_id, overrides)
    assert report.status == "verified", report.counterexamples[:2]
    assert report.params["checked"] > 0


# one changed value per ParamRange field, each of which changes the points of
# any grid that reads the field
_PERTURBED = {
    "n_max": lambda rng: rng.n_max + 1,
    "prime_lo": lambda rng: 7,
    "prime_hi": lambda rng: rng.prime_hi + 100,
    "b_set": lambda rng: (5,),
    "c_set": lambda rng: (7,),
    "h_max": lambda rng: rng.h_max + 1,
    "m_max": lambda rng: rng.m_max + 1,
    "qexp_a_max": lambda rng: rng.qexp_a_max + 1,
    "qexp_b_max": lambda rng: rng.qexp_b_max + 1,
}


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_grid_names_its_coordinates_and_range_fields(claim_id):
    # a report echoes grid.keys as its range and labels points by grid.names,
    # so the keys must be the fields the points are built from, and every
    # point must have one coordinate per name
    claim = CLAIMS[claim_id]
    grid, rng = claim.grid, claim.default_range
    assert set(_PERTURBED) == {f.name for f in dataclasses.fields(ParamRange)}
    points = list(grid.points(rng))
    for key, perturb in _PERTURBED.items():
        changed = list(grid.points(rng.override(**{key: perturb(rng)})))
        assert (changed != points) == (key in grid.keys), key
    for point in points:
        if isinstance(point, claims.Skip):
            assert set(point.point) <= set(grid.names), point
        else:
            values = point if isinstance(point, tuple) else (point,)
            assert len(values) == len(grid.names), point
            assert tuple(verify._label(claim, point)) == grid.names


# each (b, c) run of a grid, against the nested loops that build it one point at a time
@pytest.mark.parametrize("kwargs", [
    {}, {"n_lo": 0}, {"deltas": (0, 1)}, {"deltas": (1, 0), "n_lo": 0},
    {"d_nonzero": True, "b_nonzero": True}, {"d_nonzero": True, "n_lo": 0},
    {"b_nonzero": True, "deltas": (0, 1), "n_lo": 0},
], ids=["plain", "n_lo0", "deltas", "deltas-n_lo0", "skips", "d_nonzero-n_lo0",
        "b_nonzero-deltas-n_lo0"])
def test_grid_points_are_the_nested_loops(kwargs):
    rng = ParamRange().override(n_max=4, b_set=(-2, 0, 2), c_set=(1, 0, -1))
    n_lo, deltas = kwargs.get("n_lo", 1), kwargs.get("deltas")
    expected = []
    for b in rng.b_set:
        for c in rng.c_set:
            if kwargs.get("b_nonzero") and b == 0:
                expected.append(claims.Skip({"b": b, "c": c}, "requires b != 0"))
            elif kwargs.get("d_nonzero") and b * b == 4 * c:
                expected.append(claims.Skip({"b": b, "c": c}, "requires d = b^2 - 4c != 0"))
            elif deltas is None:
                expected += [(b, c, n) for n in range(n_lo, rng.n_max + 1)]
            else:
                expected += [(b, c, delta, n) for delta in deltas
                             for n in range(n_lo, rng.n_max + 1)]
    assert list(claims._grid_points(**kwargs).points(rng)) == expected


def _tuple_fold_rows(n: int, m_max: int):
    """Rows m = 0..m_max of the q-Pascal triangle mod q^n - 1: row m holds the
    length-n residues of [m k]_q for k = 0..min(m, n-1), as tuples, by
    [m k] = [m-1 k-1] + q^k [m-1 k] with q^k a rotation."""
    one = (1,) + (0,) * (n - 1)
    row = [one]
    yield row
    for m in range(1, m_max + 1):
        nxt = [one]
        for k in range(1, min(m, n - 1) + 1):
            if k < m:
                r = row[k]
                nxt.append(tuple(x + y for x, y in zip(row[k - 1], r[-k:] + r[:-k])))
            else:
                nxt.append(one)  # [m m] = 1
        row = nxt
        yield row


def _mul_cyclic(a, b, n: int) -> list:
    """Product of two residues mod q^n - 1, as a length-n residue."""
    return _fold(_mul_coeffs(a, b), n)


def _tuple_fold_q_sums_2_9(n: int) -> dict:
    """LEM-2.3's sum folded mod q^n - 1 on length-n coefficient lists, as
    _q_sum_2_9 computed it before its terms were packed: {(a, b, w): residue}
    for a, b in 0..2 and w in (2, 3).  The products of term_k are shared
    across the points, a and b growing one factor at a time."""
    rows = list(_tuple_fold_rows(n, max(2 * n - 1, n + 1)))
    upper = rows[n + 1]
    lower = [rows[n + k][k] for k in range(n)]
    neg_q3 = -q_integer(3)
    out = {}
    for w in (2, 3):
        by_b = [_mul_cyclic(_fold(q_integer(k + w).coeffs, n), rows[2 * k][k], n)
                for k in range(n)]
        for bexp in range(3):
            if bexp:
                by_b = [_mul_cyclic(t, lower[k], n) for k, t in enumerate(by_b)]
            terms = by_b
            for a in range(3):
                if a:
                    terms = [_mul_cyclic(t, upper[k], n) for k, t in enumerate(terms)]
                acc = [0] * n
                for term in terms:
                    acc = [x + t for x, t in zip(_fold((Poly(acc) * neg_q3).coeffs, n), term)]
                out[a, bexp, w] = acc
    return out


@functools.lru_cache(maxsize=None)
def _cyclotomic(d: int) -> Poly:
    """Phi_d = (q^d - 1) / prod_{e | d, e < d} Phi_e, by exact division in Z[q]."""
    divisor = Poly((1,))
    for e in range(1, d):
        if d % e == 0:
            divisor = divisor * _cyclotomic(e)
    return Poly((-1,) + (0,) * (d - 1) + (1,)).exact_div(divisor)


class TestPinnedPoints:
    def test_id_1_8_at_n_1(self):
        # both sides equal 6: 1*2*3*M_0^2*3^0 and 1*2*3*M_1*M_0
        report = verify_claim("ID-1.8", {"n_max": 1})
        assert report.status == "verified"
        lhs = sum((k + 1) * (k + 2) * (2 * k + 3) * seq.motzkin(k) ** 2 * 3 ** (0 - k)
                  for k in range(1))
        assert lhs == 6 == 1 * 2 * 3 * seq.motzkin(1) * seq.motzkin(0)

    def test_thm_1_1_i_table_prefix(self):
        report = verify_claim("THM-1.1.i", {"n_max": 50})
        assert report.status == "verified"
        assert [row[1] for row in report.table[:10]] == S_GOLDEN

    def test_thm_1_2_table_prefix(self):
        report = verify_claim("THM-1.2", {"n_max": 50})
        assert report.status == "verified"
        # n = 1 has divisor 0 (trivial); the quotient table starts at n = 2
        assert [row[1] for row in report.table[:9]] == T_GOLDEN

    def test_lem_2_4_at_p_5(self):
        # both sides are 1 mod 5: sum 2/3 + 6/18 + 0 + 0 = 4 + 2 = 6 = 1,
        # and (3^4 - 1)/5 = 16 = 1 (mod 5)
        lhs = (2 * pow(3, -1, 5) + 6 * pow(18, -1, 5)) % 5
        assert lhs == 1
        assert (pow(3, 4) - 1) // 5 % 5 == 1
        report = verify_claim("LEM-2.4", {"prime_lo": 5, "prime_hi": 5})
        assert report.status == "verified" and report.params["checked"] == 1

    def test_rem_5_1_at_p_5(self):
        ws = [seq.motzkin_analog_w(k) for k in range(5)]
        assert sum(w * w for w in ws) == 197
        assert 197 % 5 == 2
        report = verify_claim("REM-5.1", {"prime_hi": 5})
        assert report.status == "verified" and report.params["checked"] == 1

    def test_conj_5_1_a_at_n_2(self):
        total = sum((8 * k + 9) * seq.motzkin_analog_w(k) ** 2 for k in range(2))
        assert total == 26 and total % 4 == 2
        report = verify_claim("CONJ-5.1.a", {"n_max": 2})
        assert report.status == "verified"

    def test_lem_4_5_at_n_2(self):
        from motzkinlab.polynomials import s_poly, w_poly
        assert s_poly(2) == w_poly(2, 1) == Poly((1, 2))
        report = verify_claim("LEM-4.5", {"n_max": 2})
        assert report.status == "verified"

    def test_lem_2_3_point_via_exact_division(self):
        # (a=1, b=1, n=4): the sum polynomial is divisible by [4]_q
        n = 4
        total = Poly(())
        q3 = q_integer(3)
        pw = [Poly((1,))]
        for _ in range(n - 1):
            pw.append(pw[-1] * q3)
        for k in range(n):
            term = (q_binomial(n + 1, k) * q_binomial(n + k, k)
                    * q_binomial(2 * k, k) * q_integer(k + 2) * pw[n - 1 - k])
            total = total + (-term if (n - 1 - k) % 2 else term)
        quotient = total.exact_div(q_integer(n))
        assert quotient * q_integer(n) == total

    def test_folded_remainder_matches_long_division(self):
        # the checkers fold the sum mod q^n - 1; the oracle builds it in Z[q]
        # and long-divides by [n]_q.  a = 0 (where the lemma is false) and
        # the mutated weight [k+3]_q put the witness path on the grid too.
        nonzero = 0
        for n in range(1, 13):
            q3 = q_integer(3)
            pw = [Poly((1,))]
            for _ in range(n - 1):
                pw.append(pw[-1] * q3)
            for a in range(3):
                for bexp in range(3):
                    for shift in (2, 3):
                        total = Poly(())
                        for k in range(n):
                            term = (q_binomial(n + 1, k) ** a * q_binomial(n + k, k) ** bexp
                                    * q_binomial(2 * k, k) * q_integer(k + shift)
                                    * pw[n - 1 - k])
                            total = total + (-term if (n - 1 - k) % 2 else term)
                        expected = total.div_rem(q_integer(n))[1]
                        folded = _mod_q_integer(_q_sum_2_9(n, a, bexp, shift))
                        assert folded == expected, (n, a, bexp, shift)
                        assert folded.render("q") == expected.render("q")
                        nonzero += not expected.is_zero
        assert nonzero == 114

    def test_folded_q_pascal_rows_match_q_binomial(self):
        # every entry of the packed rows m <= 2n+1 (k = 0 and the cone
        # max(1, m-n) <= k <= min(m, n-1)), against the full-degree [m k]_q
        # folded here; n = 1 folds everything onto one entry
        for n in range(1, 13):
            ring = _Packed(n, comb(2 * n + 1, n))
            rows = list(claims._packed_q_pascal_rows(ring, 2 * n + 1))
            assert len(rows) == 2 * n + 2
            for m, row in enumerate(rows):
                assert list(row) == [0, *range(max(1, m - n), min(m, n - 1) + 1)], (n, m)
                for k, residue in row.items():
                    c = q_binomial(m, k).coeffs
                    assert ring.coeffs(residue) == [sum(c[i::n]) for i in range(n)], (n, m, k)

    def test_packed_sum_matches_the_tuple_fold(self):
        # every point n <= 40, a = 0 (where the lemma is false) and the
        # mutated weight [k+3]_q included
        points = 0
        for n in range(1, 41):
            for key, residue in _tuple_fold_q_sums_2_9(n).items():
                assert _q_sum_2_9(n, *key) == residue, (n, key)
                points += 1
        assert points == 720

    def test_packed_read_back_at_the_bound(self):
        # a coefficient equal to the bound U, alone at q^i: formed by rotation
        # and as the product c q^(i-j) * (U/c) q^j, which needs the fold's
        # high half when (i - j) mod n + j >= n.  The packed int must also be
        # the least residue mod 2^(nB) - 1, so reducing it reads back the same.
        for bound in (1, 3, 6, 7, 8, 2 ** 64 - 1, 2 ** 64, 3 ** 41):
            c = next(c for c in (3, 2, 1) if bound % c == 0)
            for n in range(1, 7):
                ring = _Packed(n, bound)
                for i in range(n):
                    expected = [0] * n
                    expected[i] = bound
                    for j in range(n):
                        x = ring.mul(ring.rotate(c, i - j), ring.rotate(bound // c, j))
                        assert x == ring.rotate(bound, i), (bound, n, i, j)
                        assert ring.coeffs(x) == ring.coeffs(x % ring.mask) == expected

    def test_packed_balanced_read_back(self):
        # signed coefficients up to the bound U in absolute value: +-U alone at
        # q^i, all +U, all -U and both alternations, each read back from its
        # least residue mod M = 2^(nB) - 1, from that plus M and 2M, from that
        # minus M, which is negative, and from its value at q = 2^B
        for bound in (1, 3, 6, 7, 8, 2 ** 64 - 1, 2 ** 64, 3 ** 41):
            for n in range(1, 7):
                ring = _Packed(n, bound)
                residues = [[sign * bound] * n for sign in (1, -1)]
                residues += [[(-1) ** (i + j) * bound for i in range(n)] for j in (0, 1)]
                for i in range(n):
                    for sign in (1, -1):
                        residues.append([sign * bound if j == i else 0 for j in range(n)])
                for expected in residues:
                    value = ring.pack(expected)
                    least = value % ring.mask
                    for x in (least, least + ring.mask, least + 2 * ring.mask,
                              least - ring.mask, value):
                        assert ring.coeffs(x) == expected, (bound, n, expected, x - least)

    def test_lucas_verdict_matches_fold(self):
        # q-Lucas at the divisors of n decides every point as the fold mod
        # q^n - 1 does, a = 0 (where the lemma is false) and the mutated
        # weight [k+3]_q included; Phi_d divides q^n - 1, so each residue
        # mod q^d - 1 must be zero exactly when Phi_d, built here by long
        # division, divides the folded residue
        refuted = nonzero = 0
        for n in range(1, 31):
            for a in range(3):
                for bexp in range(3):
                    for shift in (2, 3):
                        residue = _q_sum_2_9(n, a, bexp, shift)
                        fold = not _mod_q_integer(residue)
                        assert _q_divides_2_9(n, a, bexp, shift) == fold, (n, a, bexp, shift)
                        refuted += not fold
                        for d in range(2, n + 1):
                            if n % d == 0:
                                expected = Poly(residue).div_rem(_cyclotomic(d))[1]
                                got = claims._lucas_remainder(n, d, a, bexp, shift)
                                assert (not any(got)) == expected.is_zero, (n, d, a, bexp, shift)
                                nonzero += not expected.is_zero
        assert (refuted, nonzero) == (330, 786)

    def test_lucas_remainder_is_the_folded_residue(self):
        # the whole residue, not only whether it is zero: mod q^d - 1 the
        # q-Lucas sum agrees with the fold mod q^n - 1 times
        # prod_{p | d prime} (q^(d/p) - 1), since that product kills every
        # factor of the squarefree q^d - 1 but Phi_d, where the two agree
        cases = 0
        for n in range(1, 31):
            for a in range(3):
                for bexp in range(3):
                    for shift in (2, 3):
                        residue = _q_sum_2_9(n, a, bexp, shift)
                        for d in range(2, n + 1):
                            if n % d:
                                continue
                            product = Poly(_fold(residue, d))
                            for p in range(2, d + 1):
                                if d % p == 0 and all(p % e for e in range(2, p)):
                                    product = product * Poly((-1,) + (0,) * (d // p - 1) + (1,))
                            expected = _fold(product.coeffs, d)
                            got = claims._lucas_remainder(n, d, a, bexp, shift)
                            assert got == expected, (n, d, a, bexp, shift)
                            cases += 1
        assert cases == 1458

    def test_lucas_width_bound(self, monkeypatch):
        # the bound that _lucas_remainder sizes its packed ring by, taken at
        # the ring's construction, against its comb form: the unsigned sum at
        # q = 1 of the terms mod Phi_d, where q-Lucas reads [N K]_q as
        # C(N div d, K div d) [N mod d, K mod d]_q and [k+w]_q as
        # [(k+w) mod d]_q.  At d = 2, w = 2 every term is 0 mod q^2 - 1:
        # [k+2]_q = [0]_q for even k and [2k k]_q = 0 for odd k.
        bounds = []

        class Ring(_Packed):
            def __init__(self, n, bound):
                bounds.append(bound)
                super().__init__(n, bound)

        def lucas(top, bottom, d):
            return comb(top // d, bottom // d) * comb(top % d, bottom % d)

        monkeypatch.setattr(claims, "_Packed", Ring)
        for a in range(3):
            for bexp in range(3):
                for w in (2, 3):
                    for n in range(2, 41):
                        for d in range(2, n + 1):
                            if n % d:
                                continue
                            got = claims._lucas_remainder(n, d, a, bexp, w)
                            bound = sum(lucas(n + 1, k, d) ** a * lucas(n + k, k, d) ** bexp
                                        * lucas(2 * k, k, d) * ((k + w) % d) * 3 ** (n - 1 - k)
                                        for k in range(n))
                            assert bounds.pop() == bound, (a, bexp, w, n, d)
                            if d == 2 and w == 2:
                                assert bound == 0 and got == [0, 0], (a, bexp, n)

    def test_cyclotomic_polynomials(self):
        # the oracle's Phi_d against its degree phi(d), the factorization
        # q^n - 1 = prod_{d | n} Phi_d and the Moebius product at three points
        def mobius(m: int) -> int:
            out, p = 1, 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    out = -out
                p += 1
            return -out if m > 1 else out

        for n in range(1, 41):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert _cyclotomic(n).degree == sum(gcd(i, n) == 1 for i in range(1, n + 1))
            product = Poly((1,))
            for d in divisors:
                product = product * _cyclotomic(d)
            assert product == Poly((-1,) + (0,) * (n - 1) + (1,)), n
            for q0 in (2, 3, -2):
                value = Fraction(1)
                for e in divisors:
                    value *= Fraction(q0 ** e - 1) ** mobius(n // e)
                assert _cyclotomic(n)(q0) == value, (n, q0)

    def test_lem_2_1_a_at_n_1(self):
        report = verify_claim("LEM-2.1.a", {"n_max": 1})
        assert report.status == "verified"


# The rational right sides of EQ-2.8, EQ-3.4 and EQ-4.11 as the paper writes
# them, with Fraction sums and factorial quotients; the checkers compare
# integers scaled by one denominator each, and must agree with these values.

def _f28(k: int, l: int) -> Fraction:
    return (Fraction(2 * k + 1, (k + 1) * (k + 2))
            * comb(k + l + 2, 2 * l + 2) * comb(2 * l + 2, l + 1) * comb(2 * l + 2, l)
            * (-3) ** (k - l))


def _eq_2_8_term(n: int, j: int) -> Fraction:
    return Fraction((-3) ** (n - j) * (4 * n - 2 * j + 1)
                    * factorial(n + j + 3) * factorial(2 * j + 3),
                    (n + 2) * factorial(n - j) * (j + 2) * factorial(j + 1) ** 4)


def _eq_2_8_rhs(n: int) -> Fraction:
    rhs = Fraction(1 + (4 * n + 3) * (-3) ** (n + 1))
    for j in range(n + 1):
        rhs += _eq_2_8_term(n, j)
    return rhs


def _eq_3_4_term(n: int, k: int) -> Fraction:
    return Fraction(claims._a_coeff(n, k) * (-3) ** (n - k)
                    * factorial(n + k) * factorial(2 * k),
                    factorial(n - k - 1) * factorial(k) ** 4 * (k + 1))


def _eq_3_4_rhs(n: int) -> Fraction:
    rhs = Fraction(0)
    for k in range(n):
        rhs += _eq_3_4_term(n, k)
    return Fraction(2, 9) * rhs


# The single sums of LEM-2.2 and LEM-3.2 term by term, as the lemmas state them.

def _lem_2_2_term(n: int, k: int) -> int:
    return ((4 * n - 2 * k + 3) * (n + k + 2) * comb(n + k + 1, 2 * k) * comb(2 * k, k)
            * comb(2 * k + 1, k) * (-3) ** (n + 1 - k))


def _lem_3_2_term(n: int, k: int) -> int:  # C(-n-1, k) = (-1)^k C(n+k, k)
    return (comb(n - 1, k) * (-1) ** k * comb(n + k, k) * _cat(k) * 3 ** (n - 1 - k)
            * claims._a_coeff(n, k))


# The single sums of EQ-2.11 and LEM-3.4 term by term, as the claims state them.

def _eq_2_11_term(n: int, k: int) -> int:
    return comb(n + 1, k) * comb(n + k, k) * comb(2 * k, k) * (k + 2) * (-3) ** (n - 1 - k)


def _lem_3_4_term(n: int, k: int, a: int, b: int) -> int:
    return (comb(n - 1, k) ** a * ((-1) ** k * comb(n + k, k)) ** b * comb(2 * k, k) * (k + 2)
            * 3 ** (n - 1 - k))


def _eq_4_11_rhs(b: int, c: int, delta: int, n: int) -> Fraction:
    d = b * b - 4 * c
    return Fraction(b, 2) * (n * (n + 1)) ** (delta + 1) * sum(
        comb(n - 1, j) * comb(n + j + 1, j) * Fraction(comb(2 * j, j), j + delta + 1)
        * c ** j * d ** (n - 1 - j) for j in range(n))


class TestScaledIntegerSides:
    """Each scaled integer equals its rational value at every point with n <= 15."""

    def test_eq_2_8_rows_and_single_sum(self):
        lhs = Fraction(0)
        for n in range(16):
            row = sum(_f28(n, l) for l in range(n + 1))
            lhs += row
            assert claims._e28_row(n) == row
            assert claims._E28_LHS.at(n) == lhs
            if n:
                # EQ-2.8 reads LEM-2.2's single sum
                assert claims._lem_2_2_sum(n) == (n + 2) * (_eq_2_8_rhs(n) - 1)

    def test_eq_3_4_single_sum(self):
        # EQ-3.4 reads LEM-3.2's single sum
        for n in range(1, 16):
            assert 2 * (-1) ** n * n * claims._sum_3_3(n) == 3 * _eq_3_4_rhs(n)

    def test_lem_2_2_term_is_n_plus_2_times_eq_2_8_term(self):
        for n in range(41):
            for j in range(n + 1):
                assert _lem_2_2_term(n, j + 1) == (n + 2) * _eq_2_8_term(n, j), (n, j)
            assert claims._lem_2_2_sum(n) == sum(_lem_2_2_term(n, k) for k in range(n + 2)), n

    def test_eq_3_4_term_is_3_sign_n_times_lem_3_2_term(self):
        for n in range(1, 41):
            for k in range(n):
                assert _eq_3_4_term(n, k) == 3 * (-1) ** n * n * _lem_3_2_term(n, k), (n, k)
            assert claims._sum_3_3(n) == sum(_lem_3_2_term(n, k) for k in range(n)), n

    def test_eq_2_11_sum(self):
        for n in range(61):
            assert claims._eq_2_11_sum(n) == sum(_eq_2_11_term(n, k) for k in range(n)), n

    def test_lem_3_sum_at_every_exponent_pair(self):
        # LEM-3.4 reads LEM-3.2's family at weight (k+1)(k+2), since C(2k,k) = (k+1)Cat_k.
        # No claim reads an odd a + b, but these pin the sign of (k+1)^(a+b) as well,
        # and at a = 0 no factor of the ratio reaches 0 inside the range.
        for a in range(4):
            for b in range(4):
                for n in range(61):
                    got = claims._lem_3_sum(n, a, b, lambda _n, k: (k + 1) * (k + 2))
                    assert got == sum(_lem_3_4_term(n, k, a, b) for k in range(n)), (a, b, n)

    def test_eq_4_11_closed_form(self):
        # the small test grid, d = 0 at (2, 1) included, and both deltas: b times
        # the integer row at (c, d) is twice the closed form
        for b in GRID_SMALL["b_set"]:
            for c in GRID_SMALL["c_set"]:
                for delta in (0, 1):
                    for n in range(1, 16):
                        row = claims._EQ411_ROW.at(n, delta)
                        total = b * claims._hom_eval(row, c, b * b - 4 * c)
                        assert total == 2 * _eq_4_11_rhs(b, c, delta, n), (b, c, delta, n)

    @pytest.mark.parametrize("acc, zero, check, point, rhs", [
        ("_E28_LHS", 0, claims._check_eq_2_8, 7, lambda: f"telescoped form = {_eq_2_8_rhs(7)}"),
        ("_E34_LHS", (0, 0), claims._check_eq_3_4, 7,
         lambda: f"telescoped form = {_eq_3_4_rhs(7)}"),
        ("_S411", (0, 0), claims._check_eq_4_11, (3, 2, 1, 5),
         lambda: f"closed form = {_eq_4_11_rhs(3, 2, 1, 5)}"),
    ], ids=["EQ-2.8", "EQ-3.4", "EQ-4.11"])
    def test_witness_text_is_the_rational_value(self, monkeypatch, acc, zero, check, point, rhs):
        monkeypatch.setattr(claims, acc, claims._Acc(0, lambda prev, n, key: zero))
        kind, _, text = check(point)
        assert kind == "fail" and text == rhs()


# The (b, c)-sums and LEM-2.4's residue written out term by term with
# math.comb, as the claims state them.  The checkers evaluate cached
# coefficient rows (and LEM-2.4 running residues mod p) instead, and must
# report the same values.

# LEM-3.1.b's sum at (c, d) and its d-derivative, LEM-4.1's sum over b
def _t2_cd_pair(c: int, d: int, n: int) -> tuple[int, int]:
    return (sum(comb(n + j, 2 * j) * comb(2 * j, j) ** 2 * c ** j * d ** (n - j)
                for j in range(n + 1)),
            sum((n - j) * comb(n + j, 2 * j) * comb(2 * j, j) ** 2 * c ** j * d ** (n - 1 - j)
                for j in range(n)))


def _m2_cd_sum(c: int, d: int, n: int) -> int:
    return sum(comb(n + k + 1, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1)
               * c ** (k - 1) * d ** (n + 1 - k) for k in range(1, n + 2))


def _lem_3_1_b_rhs(b: int, c: int, k: int) -> int:
    return _t2_cd_pair(c, b * b - 4 * c, k)[0]


def _lem_4_1_rhs(b: int, c: int, n: int) -> int:
    return b * _t2_cd_pair(c, b * b - 4 * c, n)[1]


def _rem_2_1_rhs(b: int, c: int, n: int) -> int:
    return _m2_cd_sum(c, b * b - 4 * c, n)


def _eq_4_11_entry(n: int, delta: int, j: int) -> int:
    """(n(n+1))^(delta+1) C(n-1,j)C(n+j+1,j)C(2j,j)/(j+delta+1), asserted to be an integer."""
    entry, rem = divmod((n * (n + 1)) ** (delta + 1) * comb(n - 1, j) * comb(n + j + 1, j)
                        * comb(2 * j, j), j + delta + 1)
    assert rem == 0, (n, delta, j)
    return entry


def _eq_4_11_cd_sum(c: int, d: int, delta: int, n: int) -> int:
    return sum(_eq_4_11_entry(n, delta, j) * c ** j * d ** (n - 1 - j) for j in range(n))


def _eq_4_11_comb_sum(b: int, c: int, delta: int, n: int) -> int:
    """Twice EQ-4.11's closed form."""
    return b * _eq_4_11_cd_sum(c, b * b - 4 * c, delta, n)


def _eq_3_4_lhs(n: int) -> int:
    c1 = 16 * n * n - 30 * n + 21
    lhs = 0
    for k in range(n + 1):
        outer = 3 ** (n - k) * c1 - (16 * k * k - 30 * k + 21)
        row = 0
        for l in range(k + 1):
            row += comb(k + l, 2 * l) * comb(2 * l, l) ** 2 * (-3) ** (k - l)
        lhs += (2 * k + 1) * outer * row
    return lhs


def _lem_2_1_a_rhs(n: int) -> Poly:
    acc = ZERO
    ypow = Poly((1,))
    for k in range(1, n + 1):
        acc = acc + ypow * (comb(n + k, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1))
        ypow = ypow * Poly((0, 1, 1))
    return acc


def _eq_4_13_rhs(n: int) -> Poly:
    acc = ZERO
    ypow = Poly((1,))
    for k in range(1, n + 1):
        acc = acc + ypow * ((n + k + 1) * comb(n + 1, k + 1) * comb(n + k, k) * comb(2 * k, k + 1))
        ypow = ypow * Poly((0, 1, 1))
    return acc


def _lem_4_4_a_rhs(n: int, k: int) -> int:
    return sum(comb(n - j, k - j) * seq.narayana(n, j) for j in range(1, k + 1))


def _lem_4_4_b_rhs(n: int, k: int) -> int:
    return sum(comb(n - j, k - j) * (-1) ** (k - j) * seq.w_coeff(n, j) for j in range(1, k + 1))


def _lem_2_4_comb_residue(p: int) -> int:
    return sum(comb(2 * k, k) * pow(k * 3 ** k, -1, p) for k in range(1, p)) % p


_HUGE = 10 ** 60  # far from any value on the small grid


def _fail_texts(monkeypatch, target, name, check, point) -> tuple[str, str]:
    """The two sides a checker reports once ``target.name`` returns _HUGE,
    which makes one side wrong and leaves the other as computed."""
    monkeypatch.setattr(target, name, lambda *args: _HUGE)
    kind, lhs, rhs = check(point)
    assert kind == "fail", point
    return lhs, rhs


def _grid_small_points(n_lo: int):
    for b in GRID_SMALL["b_set"]:
        for c in GRID_SMALL["c_set"]:
            for n in range(n_lo, 16):
                yield b, c, n


# the claims read T_n(b,c) and M_n(b,c) by key, through these bindings, not
# through the public functions of sequences
_CLAIMS_READ = {"gen_trinomial": "_t_at", "gen_motzkin": "_m_at"}


class TestCachedRows:
    """Each right side read from a cached row equals its term-by-term sum at
    every point of the small grid (d = 0 at (2, 1) and c = 0 included)."""

    @pytest.mark.parametrize("claim_id, table, n_lo, prefix, rhs", [
        ("LEM-3.1.b", "gen_trinomial", 0, "sum = ", _lem_3_1_b_rhs),
        ("LEM-4.1", "gen_trinomial", 1, "b*sum = ", _lem_4_1_rhs),
        ("REM-2.1", "gen_motzkin", 0, "sum = ", _rem_2_1_rhs),
    ])
    def test_reported_right_side(self, monkeypatch, claim_id, table, n_lo, prefix, rhs):
        check = CLAIMS[claim_id].check
        for point in _grid_small_points(n_lo):
            _, text = _fail_texts(monkeypatch, claims, _CLAIMS_READ[table], check, point)
            assert text == prefix + str(rhs(*point)), point

    @pytest.mark.parametrize("claim_id, table, prefix, rhs", [
        ("LEM-4.4.a", "w_coeff", "binomial transform of N(n,*) = ", _lem_4_4_a_rhs),
        ("LEM-4.4.b", "narayana", "inverse transform of w(n,*) = ", _lem_4_4_b_rhs),
    ])
    def test_transform_right_side(self, monkeypatch, claim_id, table, prefix, rhs):
        # the right side is entry k-1 of a row per n (s_n's coefficients, or
        # the inverse transform of the w row); the oracle sums its terms
        check = CLAIMS[claim_id].check
        for n in range(1, 16):
            for k in range(1, n + 1):
                _, text = _fail_texts(monkeypatch, seq, table, check, (n, k))
                assert text == prefix + str(rhs(n, k)), (n, k)

    def test_cd_sums_are_their_comb_sums(self):
        # every (c, d) of the small grid, d = 0 and c = 0 included: the pair
        # (S, dS/dd) of LEM-3.1.b's sum, REM-2.1's sum and the pair of EQ-4.11's
        # sums at delta = 0 and 1, each half against its own comb sum
        for c, d in sorted({(c, b * b - 4 * c) for b, c, _ in _grid_small_points(15)}):
            for n in range(41):
                assert claims._T2_SUM.at(n, (c, d)) == _t2_cd_pair(c, d, n), (c, d, n)
                assert claims._M2_SUM.at(n, (c, d)) == _m2_cd_sum(c, d, n), (c, d, n)
            for n in range(1, 41):
                assert claims._EQ411_SUM.at(n, (c, d)) == (
                    _eq_4_11_cd_sum(c, d, 0, n), _eq_4_11_cd_sum(c, d, 1, n)), (c, d, n)

    def test_eq_4_11_sum(self, monkeypatch):
        # the checker's right side, with a left side that no point matches
        monkeypatch.setattr(claims, "_S411", claims._Acc(1, lambda prev, n, key: (_HUGE, _HUGE)))
        for b, c, n in _grid_small_points(1):
            for delta in (0, 1):
                kind, _, rhs = claims._check_eq_4_11((b, c, delta, n))
                assert kind == "fail", (b, c, delta, n)
                assert rhs == f"closed form = {Fraction(_eq_4_11_comb_sum(b, c, delta, n), 2)}"

    def test_eq_3_4_rows(self, monkeypatch):
        # the left side is the double sum whose inner rows come from the cache
        for n in range(1, 16):
            text, _ = _fail_texts(monkeypatch, claims, "_sum_3_3", claims._check_eq_3_4, n)
            assert text == f"double sum = {_eq_3_4_lhs(n)}", n

    def test_eq_3_4_pair(self):
        # the running pair U(n) = sum_k (2k+1) 3^(n-k) R_k, V(n) = sum_k (2k+1) c(k) R_k
        def r(k):
            return sum(comb(k + l, 2 * l) * comb(2 * l, l) ** 2 * (-3) ** (k - l)
                       for l in range(k + 1))

        for n in range(16):
            u = sum((2 * k + 1) * 3 ** (n - k) * r(k) for k in range(n + 1))
            v = sum((2 * k + 1) * (16 * k * k - 30 * k + 21) * r(k) for k in range(n + 1))
            assert claims._E34_LHS.at(n) == (u, v), n
            assert (16 * n * n - 30 * n + 21) * u - v == _eq_3_4_lhs(n), n

    def test_lem_2_1_a_polynomial(self, monkeypatch):
        monkeypatch.setattr(claims, "_S_POLY", seq._PrefixCache(
            lambda _prefix, n, _key: Poly((_HUGE,)), start=1))
        for n in range(1, 16):
            kind, _, rhs = claims._check_lem_2_1_a(n)
            assert kind == "fail" and rhs == _lem_2_1_a_rhs(n).render(), n

    def test_eq_4_13_polynomial(self, monkeypatch):
        monkeypatch.setattr(claims, "_S_POLY", seq._PrefixCache(
            lambda _prefix, n, _key: Poly((_HUGE,)), start=1))
        for n in range(1, 16):
            kind, _, rhs = claims._check_eq_4_13(n)
            assert kind == "fail" and rhs == _eq_4_13_rhs(n).render(), n

    def test_lem_2_4_residue(self):
        primes = modular.primes_in(5, 997)
        assert len(primes) == 166
        for p in primes:
            assert claims._lem_2_4_residue(p) == _lem_2_4_comb_residue(p), p

    def test_lem_2_4_residue_runs_in_constant_memory(self):
        # one running fraction, no table of p inverses
        tracemalloc.start()
        try:
            claims._lem_2_4_residue(100003)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# LEM-4.2's product as the lemma states it; entry k of EQ-4.13's right-side row is this product.
def _lem_4_2_product(n: int, k: int) -> int:
    return (n + k + 1) * comb(n + k, k) * comb(n + 1, k + 1) * comb(2 * k, k + 1)


class TestRatioRows:
    """Every row and single sum steps each term from the one before through
    _ratio_row; each row entry must equal its math.comb product for n <= 120."""

    def test_signed_chain(self):
        # C(-n-1, k) = (-1)^k C(n+k, k): the ratio -(n+1+k)/(k+1) keeps its sign up top
        for n in range(30):
            got = list(claims._ratio_row(1, range(40), lambda k: (-(n + 1 + k), k + 1)))
            assert got == [(-1) ** k * comb(n + k, k) for k in range(40)], n

    def test_chain_past_a_zero_factor(self):
        # C(m, k) for k <= m + 2: the factor m - k is 0 at k = m, and every later term is 0
        for m in range(30):
            got = list(claims._ratio_row(1, range(m + 3), lambda k: (m - k, k + 1)))
            assert got == [comb(m, k) for k in range(m + 3)], m

    def test_t2_row(self):
        for n in range(121):
            assert claims._T2_ROW.at(n) == tuple(
                comb(n + j, 2 * j) * comb(2 * j, j) ** 2 for j in range(n + 1)), n

    def test_m2_row(self):
        for n in range(121):
            assert claims._M2_ROW.at(n) == tuple(comb(n + k + 1, 2 * k) * comb(2 * k, k)
                                                 * comb(2 * k, k + 1) for k in range(1, n + 2)), n

    @pytest.mark.parametrize("delta", [0, 1])
    def test_eq_4_11_row(self, delta):
        # every entry is an integer, and equals its factored form: n(n+1) C(n-1,j)C(n+j+1,j)Cat_j
        # at delta = 0, n(j+1)^2 C(n+1,j+2)C(n+j+1,j+1)C(2j,j) at delta = 1
        factored = (
            lambda n, j: n * (n + 1) * comb(n - 1, j) * comb(n + j + 1, j) * _cat(j),
            lambda n, j: n * (j + 1) ** 2 * comb(n + 1, j + 2) * comb(n + j + 1, j + 1)
            * comb(2 * j, j),
        )[delta]
        for n in range(1, 121):
            row = claims._EQ411_ROW.at(n, delta)
            assert row == tuple(_eq_4_11_entry(n, delta, j) for j in range(n)), n
            assert row == tuple(factored(n, j) for j in range(n)), n

    def test_eq_4_13_row_is_lem_4_2_product(self, monkeypatch):
        # the row that EQ-4.13's check expands in y = x(x+1), taken on its way
        # to _expand_in_y; the left side is a dummy running sum
        rows = []
        monkeypatch.setattr(claims, "_POW_SUM", claims._Acc(0, lambda prev, n, key: (ZERO, ZERO)))
        monkeypatch.setattr(claims, "_expand_in_y", lambda row: rows.append(row) or [1])
        for n in range(1, 121):
            claims._check_eq_4_13(n)
            assert rows.pop() == tuple(_lem_4_2_product(n, k) for k in range(1, n + 1)), n

    def test_lem_2_3_row(self):
        for a in range(3):
            for bexp in range(3):
                for n in range(41):
                    assert list(claims._lem_2_3_row(n, a, bexp)) == [
                        comb(n + 1, k) ** a * comb(n + k, k) ** bexp * comb(2 * k, k)
                        for k in range(n)], (a, bexp, n)

    def test_packed_width_bound(self, monkeypatch):
        # the bound that _q_sum_2_9 sizes its packed ring by, taken at the ring's
        # construction, against its comb form: the largest term, which exceeds
        # C(2n-1, n-1), the largest q-Pascal entry the sum reads at q = 1
        class Bound(Exception):
            pass

        def ring(n, bound):
            raise Bound(bound)

        monkeypatch.setattr(claims, "_Packed", ring)
        for a in range(3):
            for bexp in range(3):
                for w in (2, 3):
                    for n in range(1, 41):
                        with pytest.raises(Bound) as caught:
                            _q_sum_2_9(n, a, bexp, w)
                        bound = max(comb(2 * k, k) * (k + w) * comb(n + 1, k) ** a
                                    * comb(n + k, k) ** bexp for k in range(n))
                        assert caught.value.args[0] == bound, (a, bexp, w, n)
                        assert bound > comb(2 * n - 1, n - 1), (a, bexp, w, n)


class TestConjecture51b:
    def test_small_primes_pass_and_p3_skipped(self):
        report = verify_claim("CONJ-5.1.b", {"prime_hi": 7})
        assert report.status == "verified"
        assert report.params["checked"] == 2  # p = 5, 7
        assert report.params["skipped"] and report.params["skipped"][0][0] == {"p": 3}

    def test_p3_outside_the_range_is_not_skipped(self):
        report = verify_claim("CONJ-5.1.b", {"prime_lo": 5, "prime_hi": 7})
        assert report.status == "verified"
        assert report.params["checked"] == 2 and report.params["skipped"] == []

    def test_printed_congruence_fails_from_p_11(self):
        # The mod-p^2 statement has counterexamples; the first is p = 11
        # (quotient 82 vs symbol side 5 mod 121).  The claim reports them
        # as counterexamples with witnesses rather than crashing.
        report = verify_claim("CONJ-5.1.b", {"prime_hi": 40})
        assert report.status == "counterexample"
        assert report.counterexamples[0]["params"] == {"p": 11}
        assert "82" in report.counterexamples[0]["lhs"]

    def test_congruence_does_hold_mod_p(self):
        for p in (5, 7, 11, 13, 17, 19, 23):
            total = sum((8 * k + 9) * seq.motzkin_analog_w(k) ** 2 for k in range(p))
            assert total % p == 0
            from motzkinlab.modular import legendre
            rhs = (24 + 10 * legendre(-1, p) - 9 * legendre(p, 3)
                   - 18 * legendre(3, p))
            assert (total // p - rhs) % p == 0


class TestConjecture53Interpretations:
    def test_default_interpretation_recorded_and_verified(self):
        report = verify_claim("CONJ-5.3.ab", {"n_max": 8, "h_max": 2, "m_max": 2})
        assert report.status == "verified"
        assert report.params["notes"]["prefactor_5_9"] == "gcd(2,m-1,n)"

    def test_alternative_interpretation_fails_at_m_1(self):
        # (5.9) read with gcd(2^(m-1), n): at m = 1 the alternating S^(1) sum
        # times 1/(n(n+1)(n+2)) is integral at n = 1 but not at n = 2
        def witness(n, m=1):
            total = claims._POW_SUM.at(n, (claims._BIG_S_POLY, 1, m))[1]
            return claims._integrality_witness(total, gcd(2 ** (m - 1), n), n * (n + 1) * (n + 2))

        assert witness(1) is None
        assert witness(2) == (1, Fraction(7, 2))


class TestMutationSensitivity:
    @pytest.mark.parametrize("claim_id", TestRegistry.MUTATIONS)
    def test_mutation_yields_counterexample(self, claim_id):
        report = verify_claim(claim_id)
        assert report.status == "counterexample"
        first = report.counterexamples[0]["params"]["n"]
        assert first <= 25

    # the real claim's checker that each fixture runs, with one weight changed
    @pytest.mark.parametrize("claim_id, checker", zip(TestRegistry.MUTATIONS, (
        "_check_thm_1_1_i", "_check_thm_1_2", "_check_thm_1_3_d", "_check_lem_2_3")))
    def test_a_checker_that_always_passes_makes_its_fixture_verify(
            self, monkeypatch, claim_id, checker):
        monkeypatch.setattr(claims, checker, lambda *args, **kwargs: claims._OK)
        assert verify_claim(claim_id).status == "verified"

    # sha256 of each fixture's default report without elapsed_ms.  Each
    # fixture runs its real claim's checker with one weight key changed, so
    # a wrong key or a changed witness text changes the report and its digest.
    MUTATION_DIGESTS = {
        "MUT-THM-1.1.i": "70f0989312bf6b3ea0e5cd14e2048de087b550ba9b5c128be34b648c836d3bb6",
        "MUT-THM-1.2": "da56bf5ed410f4da19bb4b6eafd200761ca13d82f683280e6f1bf83c34da18e2",
        "MUT-ID-1.8": "7e76ac636c6cbaf1cbb6075bf0ce62bf691ac02636f9c6771ef5346c671d4836",
        "MUT-LEM-2.3": "0d6aa66699ad9be499b8e91063700158c79de572762d861f397c2a2fea676cbe",
    }

    # At n = 4600 each fixture's witness holds an integer of more than 4300
    # decimal digits: it renders in exact hex at any limit on int-to-str
    # conversion, and the point is a refutation, not an internal error.
    @pytest.mark.parametrize("claim_id, prefix, value", [
        ("MUT-THM-1.1.i", "2*sum = ", lambda n: 2 * claims._WSUM_M.at(n, 2)),
        ("MUT-THM-1.2", "sum = ", lambda n: claims._TT_SUM.at(n, 10)),
        ("MUT-ID-1.8", "b*alt-sum = ", lambda n: claims._MSQ_SUM.at(n, (1, 1, 4))[1]),
    ])
    def test_witness_past_the_digit_limit_is_exact_hex(self, claim_id, prefix, value):
        kind, lhs, _ = CLAIMS[claim_id].check(4600)
        assert kind == "fail" and lhs.startswith(prefix)
        text = lhs[len(prefix):].split(" = ")[0]
        assert text.startswith("0x")
        assert int(text, 0) == value(4600)

    @pytest.mark.parametrize("claim_id", sorted(MUTATION_DIGESTS))
    def test_mutation_report_is_pinned(self, claim_id):
        text = reports_to_json([verify_claim(claim_id)], include_elapsed=False)
        assert hashlib.sha256(text.encode()).hexdigest() == self.MUTATION_DIGESTS[claim_id]

    def test_stop_on_first(self):
        report = verify_claim("MUT-THM-1.1.i", stop_on_first=True)
        assert len(report.counterexamples) == 1


# every dependent reads index 7 within these ranges; grids only at (3, 2)
_SMALL_AT_3_2 = {"n_max": 12, "prime_hi": 50, "b_set": [3], "c_set": [2]}


def _bump_entry_7(table, key, half=None, by=1) -> None:
    """Entry 7 of ``key``, or its ``half`` of a pair, plus ``by``."""
    table.prefix(40, key)
    entry = table._data[key][7]
    table._data[key][7] = entry + by if half is None else tuple(
        v + by * (i == half) for i, v in enumerate(entry))


@pytest.mark.parametrize("table, key, half, dependents", [
    (seq._GEN_MOTZKIN, (1, 1), None,
     ("THM-1.1.i", "THM-1.1.ii", "LEM-2.2", "EQ-2.11", "ID-1.8")),
    (seq._GEN_TRINOMIAL, (1, 1), None, ("THM-1.2", "LEM-3.2")),
    (seq._GEN_TRINOMIAL, (3, 2), None,
     ("COR-1.1.ab", "THM-1.3.a", "THM-1.3.b", "LEM-3.1.a", "LEM-3.1.b", "LEM-4.1",
      "EQ-4.11")),
    (seq._GEN_MOTZKIN, (3, 2), None,
     ("COR-1.1.c", "COR-1.1.d", "THM-1.3.c", "THM-1.3.d", "REM-2.1", "LEM-2.1.b")),
    # Corollary 1.1 reads Theorem 1.3's running sums at (b, c) = (3, 2), one
    # half of a pair each
    (claims._MSQ_SUM, (3, 2, 3), 0, ("COR-1.1.c", "THM-1.3.c")),
    (claims._MSQ_SUM, (3, 2, 3), 1, ("COR-1.1.d", "THM-1.3.d")),
    (claims._S411, (3, 2), 0, ("COR-1.1.ab", "THM-1.3.a", "EQ-4.11")),
    (claims._S411, (3, 2), 1, ("COR-1.1.ab", "THM-1.3.b", "EQ-4.11")),
    # the triangle partial sums at j = 2: entry 7 is m = 7, or m = 6 for EQ-4.12
    (claims._S42, 2, None, ("EQ-4.2",)),
    (claims._S410, (2, 1), None, ("EQ-4.10",)),
    (claims._S412, 2, None, ("EQ-4.12",)),
    (claims._S3P, 2, None, ("EQ-3.partial",)),
], ids=["M", "T", "D=T(3,2)", "s=M(3,2)", "sum-s^2", "alt-sum-s^2", "sum-D*D", "sum-k^3*D*D",
        "EQ-4.2", "EQ-4.10", "EQ-4.12", "EQ-3.partial"])
def test_perturbed_table_entry_is_caught_and_reset_clears_it(table, key, half, dependents):
    """One wrong table or running-sum entry (index 7), or one half of it,
    must refute every claim that reads it, through every accumulator built
    on it; after the one reset the same claims verify again, so no cache
    keeps the wrong value."""
    def statuses():
        return {cid: verify_claim(cid, _SMALL_AT_3_2).status for cid in dependents}

    seq._reset_caches()
    try:
        _bump_entry_7(table, key, half)
        assert statuses() == dict.fromkeys(dependents, "counterexample")
    finally:
        seq._reset_caches()
    assert statuses() == dict.fromkeys(dependents, "verified")


# The claims that read M(1, 1), T(1, 1) or W, and verify on _SMALL_AT_3_2.  CONJ-5.1.b
# reads W too, but refutes there from p = 11 on whatever the tables hold.
_M_READERS = ("THM-1.1.i", "THM-1.1.ii", "LEM-2.2", "EQ-2.11", "ID-1.8")
_T_READERS = ("THM-1.2", "LEM-3.2")
_W_READERS = ("REC-W", "CONJ-5.1.a", "REM-5.1")


@pytest.mark.parametrize("table, catchers", [
    (seq._GEN_MOTZKIN, {*_M_READERS, *_W_READERS}),
    (seq._GEN_TRINOMIAL, set(_T_READERS)),
], ids=["M", "T"])
def test_w_is_read_off_the_motzkin_table(table, catchers):
    """W_n = 2W_(n-1) - W_(n-2) + 2M_(n-2) reads M(1, 1) and no entry of T(1, 1): with
    entry 7 of M(1, 1) plus 1, REC-W and the sums of W_k^2 refute along with M's own
    readers, and with entry 7 of T(1, 1) plus 1 only T's readers refute.  After the one
    reset every one of them verifies again."""
    def statuses():
        return {cid: verify_claim(cid, _SMALL_AT_3_2).status
                for cid in (*_M_READERS, *_T_READERS, *_W_READERS)}

    seq._reset_caches()
    try:
        _bump_entry_7(table, (1, 1))
        assert {cid for cid, status in statuses().items() if status != "verified"} == catchers
    finally:
        seq._reset_caches()
    assert set(statuses().values()) == {"verified"}


@pytest.mark.parametrize("key, half, special, general", [
    ((3, 2, 3), 0, "COR-1.1.c", "THM-1.3.c"),
    ((1, 1, 3), 1, "ID-1.8", "THM-1.3.d"),
], ids=["COR-1.1.c", "ID-1.8"])
def test_specialization_refutes_as_theorem_1_3(key, half, special, general):
    """COR-1.1.c and ID-1.8 are Theorem 1.3's checkers at a fixed (b, c): with
    one running-sum entry wrong, each refutes n = 7 with the theorem's text."""
    def witnesses(claim_id, overrides):
        return [(x["params"]["n"], x["lhs"], x["rhs"])
                for x in verify_claim(claim_id, overrides).counterexamples]

    seq._reset_caches()
    try:
        _bump_entry_7(claims._MSQ_SUM, key, half)
        got = witnesses(special, {"n_max": 12})
        assert [n for n, _, _ in got] == [7]
        assert got == witnesses(general, {"n_max": 12, "b_set": [key[0]], "c_set": [key[1]]})
    finally:
        seq._reset_caches()


@pytest.mark.parametrize("acc, key, wrong, right", [
    (claims._S411, (3, 2), "THM-1.3.b", "THM-1.3.a"),
    (claims._MSQ_SUM, (3, 2, 3), "THM-1.3.d", "THM-1.3.c"),
], ids=["delta=1", "sigma=-1"])
def test_wrong_second_half_refutes_its_part_alone(acc, key, wrong, right):
    """One pair sum serves two parts of Theorem 1.3.  With the delta = 1 (or
    sigma = -1) half of entry 7 plus 1, the part reading that half is refuted
    at n = 7, and the part reading the other half still verifies: no half is
    computed from the other."""
    seq._reset_caches()
    try:
        _bump_entry_7(acc, key, 1)
        reports = {cid: verify_claim(cid, _SMALL_AT_3_2) for cid in (wrong, right)}
    finally:
        seq._reset_caches()
    assert [x["params"]["n"] for x in reports[wrong].counterexamples] == [7]
    assert reports[right].status == "verified"


# The witnesses at b = -2 with entry 7 of the |b| = 2 sum at c = -1 plus 1 (each half of
# a pair).  They are the texts of sums keyed by signed b with the (-2, -1) entry moved to
# the same wrong sum at -2: by -1 for the odd _S411, by +1 for the even sums.
_WITNESSES_AT_MINUS_2 = {
    "THM-1.3.a": [("sum = -1617057 = 55 (mod 56)", "0 (mod b*n(n+1)/2)")],
    "THM-1.3.b": [("3*sum = -67121379 = 1565 (mod 1568)", "0 (mod b*n^2(n+1)^2/4)")],
    "EQ-4.11": [("weighted T-sum = -1617057", "closed form = -1617056"),
                ("weighted T-sum = -22373793", "closed form = -22373792")],
    "THM-1.3.c": [("gcd(2,n)*sum = 16280713 = 1 (mod 504)", "0 (mod n(n+1)(n+2))")],
    "THM-1.3.d": [("b*alt-sum = -1660178", "n(n+1)(n+2)*M_n*M_(n-1) = -1660176")],
    "LEM-3.1.a": [("b*alt-sum = 97886", "n*T_n*T_(n-1) = 97888")],
}


_ONE_ENTRY_READERS = pytest.mark.parametrize("acc, key, halves, readers", [
    (claims._S411, (2, -1), (0, 1), ("THM-1.3.a", "THM-1.3.b", "EQ-4.11")),
    (claims._MSQ_SUM, (2, -1, 3), (0, 1), ("THM-1.3.c", "THM-1.3.d")),
    (claims._S31, (2, -1), (None,), ("LEM-3.1.a",)),
], ids=["_S411", "_MSQ_SUM", "_S31"])


@_ONE_ENTRY_READERS
def test_one_entry_serves_b_and_minus_b(acc, key, halves, readers):
    """b = 2 and b = -2 read one entry: with entry 7 wrong (both halves of a
    pair), both refute n = 7 alone, and the witnesses at -2 are the sum at -2."""
    seq._reset_caches()
    try:
        for half in halves:
            _bump_entry_7(acc, key, half)
        reports = {cid: verify_claim(cid, {"n_max": 12, "b_set": [2, -2], "c_set": [-1]})
                   for cid in readers}
    finally:
        seq._reset_caches()
    for cid, report in reports.items():
        points = [(x["params"]["b"], x["params"]["n"]) for x in report.counterexamples]
        assert sorted(set(points)) == [(-2, 7), (2, 7)], cid
        assert [(x["lhs"], x["rhs"]) for x in report.counterexamples
                if x["params"]["b"] == -2] == _WITNESSES_AT_MINUS_2[cid]


@contextlib.contextmanager
def _int_digit_limit(limit: int):
    """The interpreter's limit on int-to-str conversion set to ``limit`` inside."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _witnesses_at_default_and_at_640(bump, readers, overrides):
    """The witnesses of ``readers`` over ``overrides`` from cold caches with ``bump()``
    applied, at the default digit limit and at the lowest one Python takes, 640."""
    def witnesses():
        seq._reset_caches()
        try:
            bump()
            return [(x["params"], x["lhs"], x["rhs"]) for cid in readers
                    for x in verify_claim(cid, overrides).counterexamples]
        finally:
            seq._reset_caches()

    at_default = witnesses()
    with _int_digit_limit(640):
        return at_default, witnesses()


@_ONE_ENTRY_READERS
def test_witnesses_of_the_bc_sums_do_not_depend_on_the_digit_limit(acc, key, halves, readers):
    """With entry 7 off by 10**700, every witness at n = 7 holds an integer of more
    than 640 digits; it prints the same at the lowest digit limit as at the default."""
    def bump():
        for half in halves:
            _bump_entry_7(acc, key, half, by=10 ** 700)

    at_default, at_640 = _witnesses_at_default_and_at_640(
        bump, readers, {"n_max": 12, "b_set": [2, -2], "c_set": [-1]})
    assert at_640 == at_default
    assert {x[0]["n"] for x in at_default} == {7}
    assert all(len(lhs) > 640 for _, lhs, _ in at_default)


# One entry that each claim with a full-width integer in its witness reads, bumped by
# _bump_entry_7; the (b, c)-sums are read at (b, c) = (3, 2), so at (c, d) = (2, 1).
_WIDE_WITNESS_ENTRIES = [
    (claims._M2_SUM, (2, 1), None, "REM-2.1"),
    (seq._GEN_MOTZKIN, (3, 2), None, "LEM-2.1.b"),
    (claims._WSUM_M, 1, None, "LEM-2.2"),
    (claims._E28_LHS, (), None, "EQ-2.8"),
    (claims._T2_SUM, (2, 1), 0, "LEM-3.1.b"),
    (claims._TT_SUM, 9, None, "LEM-3.2"),
    (claims._S3P, 2, None, "EQ-3.partial"),
    (claims._E34_LHS, (), 0, "EQ-3.4"),
    (claims._T2_SUM, (2, 1), 1, "LEM-4.1"),
    (claims._S42, 2, None, "EQ-4.2"),
    (claims._S_POLY, (), None, "LEM-4.4.a"),
    (claims._W_INVERSE_ROW, (), 0, "LEM-4.4.b"),
    (claims._S410, (2, 1), None, "EQ-4.10"),
    (claims._EQ411_SUM, (2, 1), 0, "EQ-4.11"),
    (claims._S412, 2, None, "EQ-4.12"),
    (seq._MOTZKIN_ANALOG_W, (), None, "REC-W"),
    (claims._WSUM_W, (8, 9), None, "CONJ-5.1.b"),
]


@pytest.mark.parametrize("table, key, half, reader", _WIDE_WITNESS_ENTRIES,
                         ids=[entry[-1] for entry in _WIDE_WITNESS_ENTRIES])
def test_witnesses_do_not_depend_on_the_digit_limit(table, key, half, reader):
    """With one entry off by 10**700, the claim's witness holds an integer of more
    than 640 digits, and prints the same at the lowest digit limit as at the default."""
    at_default, at_640 = _witnesses_at_default_and_at_640(
        lambda: _bump_entry_7(table, key, half, by=10 ** 700), (reader,), _SMALL_AT_3_2)
    assert at_640 == at_default
    assert any(len(text) > 640 for _, lhs, rhs in at_default for text in (lhs, rhs))


@pytest.mark.parametrize("value", [
    Fraction(10 ** 700 + 1, 2), Fraction(-3, 10 ** 650 + 7), Fraction(-(10 ** 4299)), Fraction(0)])
def test_fraction_witness_is_str_of_the_fraction(value):
    """EQ-2.8's, EQ-3.4's, EQ-4.11's and the integrality parts' fractions print
    num/den, or num when den = 1, through _digits: str(value) at any digit limit."""
    text = str(value)
    with _int_digit_limit(640):
        assert claims._fraction_digits(value) == text


# A refuted point whose witness has more digits than the lowest limit allows, in a fresh
# interpreter started at that limit: LEM-3.1.b at (b, c, k) = (1, 1, 7) reads the sum at
# (c, d) = (1, -3), whose entry 7 is raised by 10**EXP.
_LEM_3_1_B_REPRO = """
import json, sys
from motzkinlab import claims
claims._T2_SUM.prefix(40, (1, -3))
total, der = claims._T2_SUM._data[(1, -3)][7]
claims._T2_SUM._data[(1, -3)][7] = (total + 10 ** int(sys.argv[1]), der)
print(json.dumps(claims._check_lem_3_1_b((1, 1, 7))))
"""


@pytest.mark.parametrize("exp, prefix", [(700, "sum = 1"), (4300, "sum = 0x")],
                         ids=["decimal", "hex"])
def test_witness_at_the_lowest_digit_limit_in_a_fresh_interpreter(exp, prefix):
    """Under -X int_max_str_digits=640 the refuted point fails with the witness of the
    default limit: decimal below 10**4300, exact hex from there on."""
    env = {**os.environ, "PYTHONPATH": str(Path(motzkinlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", _LEM_3_1_B_REPRO, str(exp)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    seq._reset_caches()
    try:
        _bump_entry_7(claims._T2_SUM, (1, -3), 0, by=10 ** exp)
        expected = list(claims._check_lem_3_1_b((1, 1, 7)))
    finally:
        seq._reset_caches()
    assert json.loads(proc.stdout) == expected
    assert expected[0] == "fail" and expected[2].startswith(prefix)


_BC_GRID_CLAIMS = ("THM-1.3.a", "THM-1.3.b", "THM-1.3.c", "THM-1.3.d", "LEM-3.1.a",
                   "LEM-3.1.b", "LEM-4.1", "REM-2.1", "LEM-2.1.b", "EQ-4.11")


@pytest.mark.parametrize("table, catchers", [
    (seq._GEN_TRINOMIAL, {"LEM-3.1.a", "LEM-3.1.b", "LEM-4.1"}),
    (seq._GEN_MOTZKIN, {"THM-1.3.d", "REM-2.1", "LEM-2.1.b"}),
], ids=["T", "M"])
def test_the_minus_b_tables_stay_load_bearing(table, catchers):
    """The running sums at b = -3 read the |b| = 3 tables, yet T(-3, 2) and
    M(-3, 2) stay load-bearing: with entry 7 of one plus 1, exactly the (b, c)-grid
    claims whose own sides read it refute, from cold caches."""
    seq._reset_caches()
    try:
        _bump_entry_7(table, (-3, 2))
        statuses = {cid: verify_claim(cid, {"n_max": 12, "b_set": [-3], "c_set": [2]}).status
                    for cid in _BC_GRID_CLAIMS}
    finally:
        seq._reset_caches()
    assert {cid for cid, status in statuses.items() if status != "verified"} == catchers
    assert set(statuses.values()) == {"verified", "counterexample"}


def test_theorem_1_2_witness_is_its_sum_mod_its_modulus():
    """With one entry of THM-1.2's running sum off by 1, the witness at n = 7
    prints the sum's remainder mod the modulus it prints."""
    seq._reset_caches()
    try:
        claims._TT_SUM.prefix(40, 9)
        claims._TT_SUM._data[9][7] += 1
        report = verify_claim("THM-1.2", {"n_max": 12})
    finally:
        seq._reset_caches()
    assert [x["params"]["n"] for x in report.counterexamples] == [7]
    witness = report.counterexamples[0]
    assert witness["rhs"] == "0 (mod n^2(n^2-1)/6)"
    total, rem, modulus = map(int, re.fullmatch(r"sum = (\d+) = (\d+) \(mod (\d+)\)",
                                                witness["lhs"]).groups())
    assert modulus == 7 * 7 * 48 // 6 and rem == total % modulus == 1


@pytest.mark.parametrize("helper, dependents", [
    ("_eq_2_11_sum", ("EQ-2.11",)),
    ("_lem_2_2_sum", ("LEM-2.2", "EQ-2.8")),
    # _sum_3_3 reads it at a = b = 1, LEM-3.4 at its own exponents and weight
    ("_lem_3_sum", ("LEM-3.2", "LEM-3.3", "EQ-3.4", "LEM-3.4")),
])
def test_perturbed_single_sum_is_caught(monkeypatch, helper, dependents):
    """A single sum plus 1 at n = 7 must refute every claim that reads it,
    at n = 7 and nowhere else."""
    real = getattr(claims, helper)
    monkeypatch.setattr(claims, helper, lambda n, *args: real(n, *args) + (n == 7))
    for cid in dependents:
        report = verify_claim(cid, _SMALL_AT_3_2)
        assert report.status == "counterexample", cid
        assert {c["params"]["n"] for c in report.counterexamples} == {7}, cid


@pytest.mark.parametrize("acc, key, half, dependents", [
    (claims._E34_LHS, (), 0, ("EQ-3.4",)),
    (claims._E34_LHS, (), 1, ("EQ-3.4",)),
    # the plain half of (w, h, m) feeds part 5.4, the alternating half part
    # 5.5 at h = 1 (and LEM-4.6 at m = 2) and part 5.6 at h >= 2
    (claims._POW_SUM, (claims._W_POLY, 1, 2), 0, ("CONJ-5.2.abc",)),
    (claims._POW_SUM, (claims._W_POLY, 1, 2), 1, ("CONJ-5.2.abc", "LEM-4.6")),
    (claims._POW_SUM, (claims._W_POLY, 2, 3), 1, ("CONJ-5.2.abc",)),
    (claims._POW_SUM, (claims._BIG_S_POLY, 2, 2), 0, ("CONJ-5.3.ab",)),
    (claims._POW_SUM, (claims._BIG_S_POLY, 2, 2), 1, ("CONJ-5.3.ab",)),
    (claims._POW_SUM, (claims._S_POLY, (), 2), 0, ("EQ-4.13",)),
], ids=["U", "V", "w1-plain", "w1-alt", "w2-alt", "S2-plain", "S2-alt", "s-plain"])
def test_perturbed_pair_half_is_caught_and_reset_clears_it(acc, key, half, dependents):
    """One half of a running pair's entry 7, plus 1, must refute every claim
    that reads that half; after the one reset the same claims verify again."""
    def statuses():
        return {cid: verify_claim(cid, _SMALL_AT_3_2).status for cid in dependents}

    seq._reset_caches()
    try:
        acc.prefix(20, key)
        entry = list(acc._data[key][7])
        entry[half] = entry[half] + 1
        acc._data[key][7] = tuple(entry)
        assert statuses() == dict.fromkeys(dependents, "counterexample")
    finally:
        seq._reset_caches()
    assert statuses() == dict.fromkeys(dependents, "verified")


def _bump3(row: tuple) -> tuple:
    return row[:3] + (row[3] + 1,) + row[4:]


_REFUTED = "counterexample"


@pytest.mark.parametrize("row, key, bump, perturbed", [
    (claims._T2_ROW, (), _bump3,
     {"LEM-3.1.b": _REFUTED, "LEM-4.1": _REFUTED, "EQ-3.4": _REFUTED}),
    # EQ-2.8 divides each row exactly, so a wrong row raises instead
    (claims._M2_ROW, (), _bump3,
     {"REM-2.1": _REFUTED, "LEM-2.1.a": _REFUTED, "EQ-2.8": "NonIntegral"}),
    (claims._EQ411_ROW, 0, _bump3, {"EQ-4.11": _REFUTED}),
    (claims._EQ411_ROW, 1, _bump3, {"EQ-4.11": _REFUTED}),
    (claims._W_INVERSE_ROW, (), _bump3, {"LEM-4.4.b": _REFUTED}),
    # s_7, whose coefficients are LEM-4.4.a's transform row
    (claims._S_POLY, (), lambda p: Poly(_bump3(p.coeffs)),
     dict.fromkeys(("LEM-4.4.a", "LEM-4.5", "ID-2.3", "LEM-2.1.a", "LEM-2.1.b", "EQ-4.13"),
                   _REFUTED)),
], ids=["T^2", "M^2", "EQ-4.11-delta0", "EQ-4.11-delta1", "w-inverse", "s_n"])
def test_perturbed_row_coefficient_is_caught_and_reset_clears_it(row, key, bump, perturbed):
    """Coefficient 3 of cached row 7, plus 1, must be caught by every claim
    that reads the row; after the one reset the same claims verify again."""
    def statuses():
        out = {}
        for cid in perturbed:
            try:
                out[cid] = verify_claim(cid, _SMALL_AT_3_2).status
            except NonIntegral:
                out[cid] = "NonIntegral"
        return out

    seq._reset_caches()
    try:
        row.prefix(40, key)
        row._data[key][7 - row._start] = bump(row.at(7, key))
        assert statuses() == perturbed
    finally:
        seq._reset_caches()
    assert statuses() == dict.fromkeys(perturbed, "verified")


_PLUS_MINUS_3_AT_2 = {"n_max": 12, "b_set": [3, -3], "c_set": [2]}
_CD_READERS = ("LEM-3.1.b", "LEM-4.1", "REM-2.1", "EQ-4.11", "EQ-3.4", "EQ-2.8")


@pytest.mark.parametrize("cache, key, half, readers", [
    (claims._T2_SUM, (2, 1), 0, {"LEM-3.1.b"}),
    (claims._T2_SUM, (2, 1), 1, {"LEM-4.1"}),
    (claims._M2_SUM, (2, 1), None, {"REM-2.1"}),
    (claims._EQ411_SUM, (2, 1), 0, {"EQ-4.11"}),
    (claims._EQ411_SUM, (2, 1), 1, {"EQ-4.11"}),
], ids=["T^2-sum", "T^2-derivative", "M^2-sum", "EQ-4.11-delta0", "EQ-4.11-delta1"])
def test_perturbed_cd_sum_is_caught_at_b_and_minus_b_and_reset_clears_it(cache, key, half,
                                                                          readers):
    """Entry 7 of a (c, d)-keyed sum at (2, 1), or one half of it, plus 1,
    must refute exactly the claims that read it, at n = 7 and at both b = 3
    and b = -3, which share the entry; after the one reset all verify again."""
    def reports():
        return {cid: verify_claim(cid, _PLUS_MINUS_3_AT_2) for cid in _CD_READERS}

    seq._reset_caches()
    try:
        cache.prefix(20, key)
        entry = cache.at(7, key)
        if half is None:
            entry += 1
        else:
            entry = tuple(v + (i == half) for i, v in enumerate(entry))
        cache._data[key][7 - cache._start] = entry
        for cid, report in reports().items():
            if cid not in readers:
                assert report.status == "verified", cid
                continue
            assert report.status == "counterexample", cid
            # (b, c[, delta], n): EQ-4.11 reads the half of its delta
            points = {tuple(w["params"].values()) for w in report.counterexamples}
            delta = (half,) if cid == "EQ-4.11" else ()
            assert points == {(b, 2, *delta, 7) for b in (3, -3)}, cid
    finally:
        seq._reset_caches()
    assert {cid: r.status for cid, r in reports().items()} == dict.fromkeys(_CD_READERS,
                                                                            "verified")


def _drop_rotation_3(monkeypatch) -> None:
    """Skip the rotation of the prime 3 in the Phi_d test, so a d with 3 | d
    asks for the sum to vanish at roots of q^(d/3) - 1 as well."""
    is_prime = modular.is_prime
    monkeypatch.setattr(modular, "is_prime", lambda p: p != 3 and is_prime(p))


def _double_q_part_at_r_1(monkeypatch, power) -> None:
    """Read one factor's q-part at r = k mod d = 1 as 2, not 1: the r = 1
    term of every block gains 2 ** power(a, b).  A wrong block integer would
    go unseen: the terms of one block share it, and at w = 2 they cancel
    mod Phi_d whatever it is.  Mod Phi_d, [n+1 k] = C(m, j) [1 r] and
    [n+k k] = C(m+j, j) [r r], whose q-parts at r = 1 are [1 1] = 1 and go
    unread, so the factor goes onto the shape [2 1]_q, which _lucas_remainder
    reads through q_binomial, at the exponents _q_divides_2_9 passes it."""
    remainder, q_binomial, scale = claims._lucas_remainder, claims.q_binomial, 1

    def lucas(n, d, a, bexp, weight_shift):
        nonlocal scale
        scale = 2 ** power(a, bexp)
        return remainder(n, d, a, bexp, weight_shift)

    monkeypatch.setattr(claims, "_lucas_remainder", lucas)
    monkeypatch.setattr(claims, "q_binomial",
                        lambda n, k: q_binomial(n, k) * (scale if (n, k) == (2, 1) else 1))


@pytest.mark.parametrize("bump", [
    _drop_rotation_3,
    lambda monkeypatch: _double_q_part_at_r_1(monkeypatch, lambda a, bexp: a),
    lambda monkeypatch: _double_q_part_at_r_1(monkeypatch, lambda a, bexp: bexp),
    lambda monkeypatch: _double_q_part_at_r_1(monkeypatch, lambda a, bexp: 1),
], ids=["Phi_d", "[n+1 k]", "[n+k k]", "[k+w][2k k]"])
def test_perturbed_q_factor_is_caught_and_reset_clears_it(monkeypatch, bump):
    """A Phi_d test that drops one prime's rotation, or one wrong q-Lucas
    factor, must stop LEM-2.3 from verifying: q-Lucas refutes a point that
    the fold mod q^n - 1 does not, which is an internal error.  After the
    patch is undone and the caches reset the claim verifies again."""
    small = {"n_max": 14, "qexp_a_max": 2, "qexp_b_max": 2}
    seq._reset_caches()
    try:
        bump(monkeypatch)
        with pytest.raises(claims.CheckerDisagreement):
            verify_claim("LEM-2.3", small)
    finally:
        monkeypatch.undo()
        seq._reset_caches()
    assert verify_claim("LEM-2.3", small).status == "verified"


def test_concurrent_q_factor_fills_agree_and_do_not_deadlock():
    # threads that fill the q-Pascal rows of the q-Lucas shapes [2r r] in
    # opposite point orders, through the q-Lucas verdicts of both weights,
    # must all finish with the serial verdicts and the serial rows: rows 0 to
    # 28, the last read at d = 29 and 30 with a = 0
    points = [(n, a, bexp, shift) for n in range(1, 31) for a in (0, 1, 2)
              for bexp in (0, 1, 2) for shift in (2, 3)]
    seq._reset_caches()
    expected = [_q_divides_2_9(*pt) for pt in points]

    def q_rows():
        return list(_Q_ROWS._data[()])

    rows = q_rows()
    assert len(rows) == 29
    n_threads, got, errors = 6, [], []

    def work(start: threading.Barrier, order: int) -> None:
        try:
            start.wait()
            pts = points if order % 2 else points[::-1]
            out = {pt: _q_divides_2_9(*pt) for pt in pts}
            got.append([out[pt] for pt in points])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seq._reset_caches()
            start = threading.Barrier(n_threads, timeout=60)
            threads = [threading.Thread(target=work, args=(start, i)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert q_rows() == rows
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert got == [expected] * (3 * n_threads)


def _race_fills(expected: dict, n_threads: int = 6) -> None:
    # threads that fill prefix caches entry by entry, by at() at each n, by
    # prefix() at once and by prefix() at each n, while the steps fill the
    # tables and rows they read, must all read expected[(cache, key)], the
    # list of the key's entries from the cache's start on
    jobs, rounds = list(expected), 10
    readers = [lambda cache, key, n_max: [cache.at(n, key) for n in range(cache._start, n_max + 1)],
               lambda cache, key, n_max: cache.prefix(n_max, key),
               lambda cache, key, n_max: [cache.prefix(n, key)[-1]
                                          for n in range(cache._start, n_max + 1)]]
    got, errors = [], []

    def work(start: threading.Barrier, i: int) -> None:
        read = readers[i % len(readers)]
        try:
            start.wait()
            for cache, key in jobs[i % len(jobs):] + jobs[:i % len(jobs)]:
                n_max = cache._start + len(expected[cache, key]) - 1
                got.append(((cache, key), read(cache, key, n_max)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            seq._reset_caches()
            start = threading.Barrier(n_threads, timeout=60)
            threads = [threading.Thread(target=work, args=(start, i)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(cache._data[key] == expected[cache, key] for cache, key in jobs)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(got) == rounds * n_threads * len(jobs)
    assert all(values == expected[job] for job, values in got)


def test_concurrent_running_sum_fills_agree_with_the_sums():
    n_max = 100
    _race_fills({
        (claims._S31, (b, c)): [
            sum((2 * k + 1) * _t_bc(k, b, c) ** 2 * (4 * c - b * b) ** (n - 1 - k)
                for k in range(n)) for n in range(n_max + 1)]
        for b in (-3, 1, 2) for c in (-1, 1, 2)})


def test_concurrent_msq_sum_fills_agree_with_the_sums():
    # THM-1.3.c/d's pair of sums, sigma = +1 and -1, and MUT-ID-1.8's weight,
    # over the M_n(b, c) tables that the steps fill
    def msq(b, c, sigma, e, n):
        return sum((k + 1) * (k + 2) * (2 * k + e) * _m_bc(k, b, c) ** 2
                   * (sigma * (b * b - 4 * c)) ** (n - 1 - k) for k in range(n))

    n_max = 60
    _race_fills({
        (claims._MSQ_SUM, (b, c, e)): [(msq(b, c, 1, e, n), msq(b, c, -1, e, n))
                                       for n in range(n_max + 1)]
        for b, c, e in ((1, 1, 3), (1, 1, 4), (3, 2, 3), (2, -1, 3), (-3, 2, 3))})


def test_concurrent_cd_sum_fills_agree_with_the_oracle():
    # LEM-3.1.b's pair and EQ-4.11's pair of deltas from a cold cache, rows
    # included, at keys with d = 0 and c = 0 among them
    n_max = 60
    expected = {(claims._T2_SUM, (c, d)): [_t2_cd_pair(c, d, n) for n in range(n_max + 1)]
                for c, d in ((2, 1), (-1, 8), (0, 4), (1, 0))}
    expected.update({(claims._EQ411_SUM, (c, d)): [
        (_eq_4_11_cd_sum(c, d, 0, n), _eq_4_11_cd_sum(c, d, 1, n)) for n in range(1, n_max + 1)]
        for c, d in ((2, 1), (-1, 8), (1, 0))})
    _race_fills(expected, n_threads=8)


# Every accumulator of the claims with the index of its first term and its
# value before it, A(start - 1).
_ACC_STARTS = [("_WSUM_M", 1, 0), ("_TT_SUM", 1, 0), ("_MSQ_SUM", 1, (0, 0)), ("_S31", 1, 0),
               ("_S411", 1, (0, 0)), ("_WSUM_W", 1, 0), ("_E28_LHS", 0, 0), ("_E34_LHS", 0, (0, 0)),
               ("_POW_SUM", 1, (ZERO, ZERO)), ("_S42", 1, 0), ("_S410", 1, 0), ("_S412", 0, 0),
               ("_S3P", 1, 0)]


def test_every_accumulator_has_its_start_listed():
    assert sorted(name for name, _, _ in _ACC_STARTS) == sorted(
        name for name, v in vars(claims).items() if isinstance(v, claims._Acc))


@pytest.mark.parametrize("name, start, init", _ACC_STARTS, ids=[a for a, _, _ in _ACC_STARTS])
def test_accumulator_reads_init_before_its_first_term_and_stores_nothing_below(name, start, init):
    # A(start - 1) is init, with no step run (the key is one no step could
    # read); an index below it raises and stores nothing, cold or warm
    acc, key = getattr(claims, name), ("no step reads this key",)
    seq._reset_caches()
    try:
        with pytest.raises(ValueError):
            acc.at(start - 2, key)
        assert key not in acc._data
        assert acc.prefix(start - 2, key) == [] and key not in acc._data
        assert acc.at(start - 1, key) == init
        assert acc.prefix(start - 1, key) == [init]
        with pytest.raises(ValueError):
            acc.at(start - 2, key)
        assert acc._data[key] == [init]
    finally:
        seq._reset_caches()


# (accumulator, key) for the cold fills: the key of every keyed sum (each
# half of a pair sum names its key once), and the two pairs with tuple entries
_COLD_FILLS = [(acc, _ENTRY_OF[acc](*key)[0] if acc in _ENTRY_OF else key)
               for acc, key, _ in _KEYED_SUMS] + [
    ("_E34_LHS", ()), ("_POW_SUM", (claims._S_POLY, (), 2)), ("_POW_SUM", (claims._W_POLY, 1, 1))]


@pytest.mark.parametrize("name, key", _COLD_FILLS,
                         ids=[f"{acc}-{i}" for i, (acc, _) in enumerate(_COLD_FILLS)])
def test_cold_accumulator_read_is_the_entry_by_entry_fill(name, key):
    # a cold at(40) fills the key's list in one loop; it must hold the
    # entries that reading A(start - 1), A(start), ..., A(40) one at a time
    # stores, and prefix() must be a fresh copy of those reads
    acc, start = getattr(claims, name), {a: s for a, s, _ in _ACC_STARTS}[name]
    seq._reset_caches()
    try:
        last = acc.at(40, key)
        cold = list(acc._data[key])
        seq._reset_caches()
        one_by_one = [acc.at(n, key) for n in range(start - 1, 41)]
        assert cold == one_by_one and last == one_by_one[-1]
        assert len(cold) == 42 - start
        for n in (start - 1, start, 17, 40):
            got = acc.prefix(n, key)
            assert got == one_by_one[:n - start + 2]
            got.append(None)
            assert acc.prefix(n, key) == one_by_one[:n - start + 2]
    finally:
        seq._reset_caches()


def test_every_cached_entry_is_its_step_on_the_whole_list():
    # A step reads the entries before its own by position, so entry j
    # recomputed from the whole list, later entries included, is the stored
    # one; a step that read from the end would read a later entry.  Each of
    # the package's caches must be filled past two entries, so that each
    # step reads one (tests register caches of their own as well).  An
    # accumulator's step reads only the entry before its own, so its list
    # must start at init and step each entry from the one before it.
    seq._reset_caches()
    try:
        run_suite("all", {"n_max": 12, "prime_hi": 50})
        for cache in [v for module in (seq, claims, motzkinlab.polynomials)
                      for v in vars(module).values() if isinstance(v, seq._PrefixCache)]:
            assert max(map(len, cache._data.values()), default=0) >= 3, cache._step
        for cache in list(seq._CACHES):
            for key, vals in list(cache._data.items()):
                if isinstance(cache, claims._Acc):
                    assert vals[0] == cache._init, (cache._step, key)
                    for j in range(1, len(vals)):
                        assert cache._step(vals[j - 1], cache._start + j, key) == vals[j], (
                            cache._step, key, j)
                    continue
                for j, value in enumerate(vals):
                    assert cache._step(vals, cache._start + j, key) == value, (cache._step, key, j)
    finally:
        seq._reset_caches()


def test_a_dropped_cache_leaves_the_registry():
    # _CACHES holds its caches weakly, so a cache that a test builds and
    # drops is not walked by _reset_caches ever after
    gc.collect()
    before = len(seq._CACHES)
    cache = seq._PrefixCache(lambda _prefix, n, _key: n)
    assert cache.at(3) == 3 and cache in seq._CACHES
    seq._reset_caches()
    assert cache._data == {}
    alive = weakref.ref(cache)
    del cache
    gc.collect()
    assert alive() is None and len(seq._CACHES) == before


class TestSqrtDClaim:
    def test_perfect_square_pairs(self):
        report = verify_claim("LEM-2.1.b", {"n_max": 20, "b_set": (3,), "c_set": (2, 0)})
        assert report.status == "verified"
        assert report.params["checked"] == 2 * 21

    def test_square_branch_values(self):
        # (b, c) = (3, 2): d = 1, x = 1, so the value is the little Schroder number
        for n in range(6):
            assert s_poly(n + 1)(1) == seq.gen_motzkin(n, 3, 2)
        # (b, c) = (3, 0): d = 9, x = 0, value 3^n
        for n in range(6):
            assert 3 ** n * s_poly(n + 1)(0) == seq.gen_motzkin(n, 3, 0) == 3 ** n

    def test_extension_branch(self):
        report = verify_claim("LEM-2.1.b", {"n_max": 15, "b_set": (1,), "c_set": (1,)})
        assert report.status == "verified"
        assert report.params["checked"] == 16

    def test_pair_matches_independent_evaluation(self):
        # every b, c in [-4, 4] with d != 0 (b = 0 included, which no default
        # grid reaches) and n <= 20, against an evaluation that shares nothing
        # with the checker but s_(n+1)'s coefficients
        for b in range(-4, 5):
            for c in range(-4, 5):
                d = b * b - 4 * c
                if d == 0:
                    continue
                for n in range(21):
                    assert claims._lem_2_1_b_pair(b, d, n) == _lem_2_1_b_oracle(b, d, n)
                    assert claims._check_lem_2_1_b((b, c, n)) == ("ok", None)

    @pytest.mark.parametrize("b, c", [(3, 2), (1, 1)], ids=["d=1", "d=-3"])
    def test_perturbed_s_poly_coefficient_is_caught(self, b, c):
        seq._reset_caches()
        try:
            claims._S_POLY.prefix(12)
            s8 = list(claims._S_POLY._data[()][7].coeffs)  # s_8, read at n = 7
            s8[3] += 1
            claims._S_POLY._data[()][7] = Poly(s8)
            report = verify_claim("LEM-2.1.b", {"n_max": 10, "b_set": [b], "c_set": [c]})
            assert report.status == "counterexample"
            assert [ce["params"] for ce in report.counterexamples] == [{"b": b, "c": c, "n": 7}]
        finally:
            seq._reset_caches()
        assert verify_claim("LEM-2.1.b", {"n_max": 10, "b_set": [b], "c_set": [c]}).status == "verified"


def _lem_2_1_b_oracle(b: int, d: int, n: int) -> tuple:
    """(u, v) with u + v*y = 2^n y^n s_(n+1)((b - y)/(2y)) in Z[y]/(y^2 - d).

    For a square d = r^2 the pair is read off the rational values at y = r
    and y = -r; otherwise sum_k a_k (2y)^(n-k) (b - y)^k is expanded in Z[y]
    and reduced mod y^2 - d."""
    s = s_poly(n + 1)
    r = isqrt(d) if d > 0 else 0
    if d > 0 and r * r == d:
        plus, minus = (Fraction(2 * y) ** n * s(Fraction(b - y, 2 * y)) for y in (r, -r))
        return (plus + minus) / 2, (plus - minus) / (2 * r)
    total = ZERO
    for k, a in enumerate(s.coeffs):
        total = total + Poly((0, 2)) ** (n - k) * Poly((b, -1)) ** k * a
    rem = total.div_rem(Poly((-d, 0, 1)))[1]
    return (rem.coeffs + (0, 0))[:2]


def test_rec_w_is_pinned_at_offset_0(monkeypatch):
    # a w-family shifted by one index satisfies the recurrence at offset -1;
    # with the offset pinned at 0 it must be refuted
    shifted = seq._PrefixCache(lambda _prefix, n, h: w_poly(n + 1, h), start=1)
    monkeypatch.setattr(claims, "_W_POLY", shifted)
    report = verify_claim("REC-w", {"n_max": 10})
    assert report.status == "counterexample"
    assert report.params["notes"]["index_offset"] == 0


def test_every_export_resolves():
    missing = [name for name in motzkinlab.__all__ if not hasattr(motzkinlab, name)]
    assert missing == []


class TestEngine:
    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            verify_claim("NOPE")

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope")
        with pytest.raises(UnknownSuite):
            run_suite("")

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            verify_claim("THM-1.1.i", {"n_max": -3})
        with pytest.raises(InvalidRange):
            verify_claim("THM-1.1.i", {"bogus_field": 3})

    def test_prime_hi_is_bounded(self):
        ParamRange(prime_hi=10 ** 7).validate()
        with pytest.raises(InvalidRange, match="prime_hi 1000000000000 exceeds 10"):
            ParamRange(prime_hi=10 ** 12).validate()

    def test_skipped_points_recorded(self):
        report = verify_claim("THM-1.3.a", {"n_max": 5, "b_set": (2,), "c_set": (1, 2)})
        assert report.params["skipped"] == [[{"b": 2, "c": 1}, "requires d = b^2 - 4c != 0"]]
        assert report.params["checked"] == 5

    def test_fully_skipped_claim_status(self):
        report = verify_claim("THM-1.3.a", {"n_max": 5, "b_set": (2,), "c_set": (1,)})
        assert report.status == "skipped"
        assert report.params["checked"] == 0

    def test_parallel_determinism_single_claim(self):
        kw = {"n_max": 25}
        serial = verify_claim("THM-1.3.a", kw, jobs=1)
        parallel = verify_claim("THM-1.3.a", kw, jobs=3)
        assert (reports_to_json([serial], include_elapsed=False)
                == reports_to_json([parallel], include_elapsed=False))

    def test_suite_determinism_across_jobs(self):
        overrides = {"n_max": 10, "prime_hi": 30}
        one = run_suite("theorems", overrides, jobs=1)
        two = run_suite("theorems", overrides, jobs=2)
        assert (reports_to_json(one, include_elapsed=False)
                == reports_to_json(two, include_elapsed=False))

    def test_suite_order_matches_definition(self):
        reports = run_suite("theorems", {"n_max": 5, "prime_hi": 20})
        assert [r.claim for r in reports] == list(SUITES["theorems"])

    def test_stop_on_first_parallel_matches_serial(self):
        kw = {"prime_hi": 60}
        serial = verify_claim("CONJ-5.1.b", kw, stop_on_first=True, jobs=1)
        parallel = verify_claim("CONJ-5.1.b", kw, stop_on_first=True, jobs=3)
        assert serial.counterexamples == parallel.counterexamples
        assert len(serial.counterexamples) == 1
        assert serial.counterexamples[0]["params"] == {"p": 11}

    def test_stop_on_first_stops_checking(self, monkeypatch):
        # CONJ-5.1.b holds at p = 5, 7 and fails from p = 11 on
        claim = CLAIMS["CONJ-5.1.b"]
        calls = []

        def counting(point):
            calls.append(point)
            return claim.check(point)

        monkeypatch.setitem(CLAIMS, "CONJ-5.1.b", dataclasses.replace(claim, check=counting))
        report = verify_claim("CONJ-5.1.b", {"prime_hi": 60}, stop_on_first=True)
        assert [ce["params"] for ce in report.counterexamples] == [{"p": 11}]
        assert calls == [5, 7, 11]

    def test_suite_stop_on_first_counterexample(self):
        # CONJ-5.1.b fails within the conjectures suite; later claims are skipped
        reports = run_suite("conjectures",
                            {"n_max": 6, "prime_hi": 40, "h_max": 1, "m_max": 1},
                            stop_on_first=True)
        assert reports[-1].claim == "CONJ-5.1.b"
        assert reports[-1].status == "counterexample"
        assert len(reports[-1].counterexamples) == 1
        assert [r.claim for r in reports] == ["CONJ-5.1.a", "CONJ-5.1.b"]

    # each case crosses a chunk boundary with something a report keeps
    _CHUNK_CASES = [
        ("THM-1.1.i", {"n_max": 60}, False),  # more table rows than the cap
        # skips for b = 0 and for d = b^2 - 4c = 0 between checked points
        ("THM-1.3.a", {"n_max": 8, "b_set": (-2, 0, 2), "c_set": (1, 2)}, False),
        ("CONJ-5.1.b", {"prime_hi": 60}, False),  # skips p = 3, fails from p = 11
        ("CONJ-5.1.b", {"prime_hi": 60}, True),
        ("MUT-THM-1.1.i", None, False),
    ]

    @pytest.mark.parametrize("claim_id, overrides, stop_on_first", _CHUNK_CASES)
    def test_joined_chunks_match_one_chunk(self, claim_id, overrides, stop_on_first):
        claim = CLAIMS[claim_id]
        points = list(claim.grid.points(verify.effective_range(claim, overrides)))
        whole = verify._eval_chunk(claim_id, points, stop_on_first)
        checked, skipped, table, counterexamples = whole
        assert skipped or counterexamples or (checked > len(table) == verify._TABLE_CAP)
        for size in range(1, len(points) + 1):
            parts = [verify._eval_chunk(claim_id, points[lo:lo + size], stop_on_first)
                     for lo in range(0, len(points), size)]
            assert verify._join(parts, stop_on_first) == whole, size

    class InlineExecutor:
        """Runs each submitted call at once and hands back its finished
        future, the call's exception stored in it, so the pooled path runs
        without processes."""

        def __init__(self):
            self.submitted = 0

        def submit(self, fn, *args):
            self.submitted += 1
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    @pytest.mark.parametrize("claim_id, overrides, stop_on_first", _CHUNK_CASES)
    def test_pooled_join_matches_serial(self, claim_id, overrides, stop_on_first):
        claim = CLAIMS[claim_id]
        count = len(list(claim.grid.points(verify.effective_range(claim, overrides))))
        size = -(-count // 12)  # 4·jobs blocks at jobs = 3
        inline = self.InlineExecutor()
        pooled = verify_claim(claim_id, overrides, stop_on_first=stop_on_first, jobs=3,
                              executor=inline)
        serial = verify_claim(claim_id, overrides, stop_on_first=stop_on_first)
        assert inline.submitted == min(3, -(-count // size)) > 1  # one task per worker
        assert (reports_to_json([pooled], include_elapsed=False)
                == reports_to_json([serial], include_elapsed=False))

    # a checker returns the shared _OK for a verified point without a derived
    # value; the engine skips its tag and table tests by identity, and an equal
    # tuple built afresh takes the general path to the same part
    @pytest.mark.parametrize("claim_id, overrides", [
        ("THM-1.1.i", {"n_max": 60}),  # derived values, more than the table holds
        ("THM-1.3.a", {"n_max": 8, "b_set": (-2, 0, 2), "c_set": (1, 2)}),  # _OK and skips
        ("REC-W", {"n_max": 30}),  # derived values from _ok
        ("MUT-THM-1.1.i", None),  # counterexamples between verified points
    ])
    def test_fresh_ok_result_gives_the_same_part(self, monkeypatch, claim_id, overrides):
        claim = CLAIMS[claim_id]
        points = list(claim.grid.points(verify.effective_range(claim, overrides)))
        shared = verify._eval_chunk(claim_id, points)
        fresh = [tuple(list(claim.check(point))) for point in points
                 if not isinstance(point, claims.Skip)]
        assert not any(result is claims._OK for result in fresh)
        results = iter(fresh)
        monkeypatch.setitem(CLAIMS, claim_id,
                            dataclasses.replace(claim, check=lambda point: next(results)))
        assert verify._eval_chunk(claim_id, points) == shared

    def test_shared_ok_result_adds_no_table_row(self):
        checked, skipped, table, counterexamples = verify._eval_chunk(
            "THM-1.3.a", [(1, 1, n) for n in range(1, 9)])
        assert claims._check_thm_1_3_a((1, 1, 1)) is claims._OK
        assert (checked, skipped, table, counterexamples) == (8, [], [], [])

    def test_derived_values_fill_the_table_to_its_cap(self):
        # THM-1.1.i's derived value is its quotient 2/n * sum (2k+1) M_k^2
        checked, skipped, table, counterexamples = verify._eval_chunk(
            "THM-1.1.i", list(range(1, 61)))
        assert (checked, skipped, counterexamples) == (60, [], [])
        assert table == [[{"n": n}, 2 * sum((2 * k + 1) * seq.motzkin(k) ** 2
                                            for k in range(1, n + 1)) // n]
                         for n in range(1, verify._TABLE_CAP + 1)]

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_blocks_are_dealt_back_and_forth(self, jobs):
        # for every block count up to 4·jobs: each round of blocks goes to
        # distinct tasks, blocks i and 4·jobs - 1 - i share a task (b and -b
        # on a symmetric b-set), and so do blocks k and k + 2·jobs
        for count in range(1, 4 * jobs + 1):
            tasks = min(jobs, count)
            task = [verify._deal(i, tasks) for i in range(count)]
            assert all(0 <= w < tasks for w in task), count
            for lo in range(0, count, tasks):
                assert len(set(task[lo:lo + tasks])) == len(task[lo:lo + tasks]), (count, lo)
            for i in range(count):
                if 4 * jobs - 1 - i < count:
                    assert task[i] == task[4 * jobs - 1 - i], (count, i)
                if i + 2 * jobs < count:
                    assert task[i] == task[i + 2 * jobs], (count, i)

    @pytest.mark.parametrize("claim_id, cache, entries", [
        ("LEM-3.1.b", claims._T2_SUM, 36 * 34), ("EQ-4.11", claims._EQ411_SUM, 36 * 33)],
        ids=["LEM-3.1.b", "EQ-4.11"])
    def test_pooled_tasks_fill_each_cd_sum_entry_once(self, claim_id, cache, entries):
        # On a symmetric b-set, b and -b share a task at jobs = 2.  Each task
        # runs from empty caches, as in a fresh worker, and together they fill
        # the entries of the (c, d)-sums that the serial run fills: 36 keys
        # (c, d) times n = 0..33 (1..33 for EQ-4.11), each entry once.
        overrides = {"n_max": 33, "b_set": [-4, -3, -2, -1, 1, 2, 3, 4],
                     "c_set": list(range(-4, 5))}
        filled = []

        class FreshWorkers(TestEngine.InlineExecutor):
            def submit(self, fn, *args):
                seq._reset_caches()
                future = super().submit(fn, *args)
                filled.append(sum(map(len, cache._data.values())))
                return future

        seq._reset_caches()
        try:
            verify_claim(claim_id, overrides)
            serial = sum(map(len, cache._data.values()))
            verify_claim(claim_id, overrides, jobs=2, executor=FreshWorkers())
        finally:
            seq._reset_caches()
        assert len(filled) == 2 and sum(filled) == serial == entries

    # THM-1.1.i at n_max = 25 and jobs = 2: 7 blocks of at most 4 points
    # (n = 1..4, 5..8, 9..12, ...), dealt back and forth: task 0 checks
    # blocks 0, 3, 4 and task 1 blocks 1, 2, 5, 6
    def _broken_checker(self, monkeypatch, fail_at, raise_at):
        claim = CLAIMS["THM-1.1.i"]

        def check(n):
            if n == fail_at:
                return ("fail", "lhs", "rhs")
            if n in raise_at:
                raise ValueError(f"checker broke at n = {n}")
            return claim.check(n)

        monkeypatch.setitem(CLAIMS, claim.id, dataclasses.replace(claim, check=check))

    def test_pooled_stop_on_first_ends_before_a_later_raise(self, monkeypatch):
        # the first counterexample (n = 5) is in task 1's block 1; task 0
        # raises in its block 3 (n = 13), which the serial run never reaches
        self._broken_checker(monkeypatch, fail_at=5, raise_at={13})
        inline = self.InlineExecutor()
        pooled = verify_claim("THM-1.1.i", {"n_max": 25}, stop_on_first=True, jobs=2,
                              executor=inline)
        serial = verify_claim("THM-1.1.i", {"n_max": 25}, stop_on_first=True)
        assert inline.submitted == 2
        assert serial.counterexamples == [{"params": {"n": 5}, "lhs": "lhs", "rhs": "rhs"}]
        assert (reports_to_json([pooled], include_elapsed=False)
                == reports_to_json([serial], include_elapsed=False))

    def test_pooled_run_raises_what_the_serial_run_raises(self, monkeypatch):
        # task 1 raises in block 1 (n = 6), task 0 in block 3 (n = 14); the
        # serial run raises at n = 6, and so must the join
        self._broken_checker(monkeypatch, fail_at=None, raise_at={6, 14})
        with pytest.raises(ValueError) as serial:
            verify_claim("THM-1.1.i", {"n_max": 25})
        with pytest.raises(ValueError) as pooled:
            verify_claim("THM-1.1.i", {"n_max": 25}, jobs=2, executor=self.InlineExecutor())
        assert str(serial.value) == str(pooled.value) == "checker broke at n = 6"
        cause = str(pooled.value.__cause__)
        assert cause.startswith("Traceback") and "in check" in cause
        assert "ValueError: checker broke at n = 6" in cause


class TestReportSerialization:
    def test_json_field_order(self):
        report = verify_claim("LEM-4.3", {"n_max": 5})
        d = report.to_json_dict()
        assert list(d) == ["claim", "params", "status", "counterexamples",
                           "table", "elapsed_ms"]

    def test_csv_shape(self):
        reports = [verify_claim("THM-1.1.i", {"n_max": 5}),
                   verify_claim("MUT-ID-1.8", {"n_max": 2})]
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == "claim,param,status,lhs,rhs,witness"
        assert any("counterexample" in line for line in lines)

    def test_deterministic_json_ignores_only_elapsed(self):
        r1 = verify_claim("LEM-4.3", {"n_max": 8})
        r2 = verify_claim("LEM-4.3", {"n_max": 8})
        assert (reports_to_json([r1], include_elapsed=False)
                == reports_to_json([r2], include_elapsed=False))
        d = json.loads(reports_to_json([r1], include_elapsed=False))
        assert d[0]["elapsed_ms"] is None


class TestNonIntegralSignal:
    def test_non_integral_exception_type(self):
        with pytest.raises(NonIntegral):
            raise NonIntegral("demo", 1)
        assert issubclass(NonIntegral, ArithmeticError)

    @pytest.mark.parametrize("exc", [NonIntegral("demo", 1), NotDivisible("demo", Poly((1, 2)))],
                             ids=["NonIntegral", "NotDivisible"])
    def test_round_trip_through_pickle(self, exc):
        # how a pool worker's exception reaches the parent
        back = pickle.loads(pickle.dumps(exc))
        assert (type(back), str(back), back.remainder) == (type(exc), "demo", exc.remainder)

    def test_pooled_run_re_raises_it_with_its_remainder(self, monkeypatch):
        # THM-1.1.i at n_max = 25 and jobs = 2: n = 11 is in block 2, task 1's second
        claim = CLAIMS["THM-1.1.i"]

        def check(n):
            if n == 11:
                raise NonIntegral(f"remainder 7 at n = {n}", 7)
            return claim.check(n)

        monkeypatch.setitem(CLAIMS, claim.id, dataclasses.replace(claim, check=check))
        with pytest.raises(NonIntegral) as serial:
            verify_claim("THM-1.1.i", {"n_max": 25})
        # forked workers see the patched registry
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            with pytest.raises(NonIntegral) as pooled:
                verify_claim("THM-1.1.i", {"n_max": 25}, jobs=2, executor=pool)
        assert ((str(pooled.value), pooled.value.remainder)
                == (str(serial.value), serial.value.remainder) == ("remainder 7 at n = 11", 7))
