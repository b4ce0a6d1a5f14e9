"""Claim registry and verification engine tests.

Pinned hand-computed points, small-range verification of every claim,
mutation sensitivity, skip/counterexample bookkeeping, and determinism
under parallelism.
"""
from __future__ import annotations

import json
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import comb, factorial, isqrt, lcm

import pytest

import motzkinlab
from motzkinlab import claims, modular, sequences as seq
from motzkinlab.claims import (CLAIMS, NonIntegral, _mod_q_integer, _q_sum_2_9,
                               s_quotient, t_quotient)
from motzkinlab.polynomials import (Poly, ZERO, _folded_q_binomial_rows, q_binomial, q_integer,
                                    s_poly, w_poly)
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


class TestRegistry:
    EXPECTED_IDS = {
        "THM-1.1.i", "THM-1.1.ii", "THM-1.2", "THM-1.3.a", "THM-1.3.b",
        "THM-1.3.c", "THM-1.3.d", "ID-1.8", "COR-1.1.ab", "COR-1.1.c",
        "COR-1.1.d", "ID-2.3", "LEM-2.1.a", "LEM-2.1.b", "REM-2.1", "LEM-2.2",
        "EQ-2.8", "LEM-2.3", "LEM-2.4", "EQ-2.11", "LEM-3.1.a", "LEM-3.1.b",
        "LEM-3.2", "EQ-3.partial", "EQ-3.4", "LEM-3.3", "LEM-3.4", "LEM-4.1",
        "EQ-4.2", "LEM-4.2", "LEM-4.3", "LEM-4.4.a", "LEM-4.4.b", "LEM-4.5",
        "LEM-4.6", "REC-w", "EQ-4.10", "EQ-4.11", "EQ-4.12", "EQ-4.13",
        "REC-W", "CONJ-5.1.a", "CONJ-5.1.b", "REM-5.1", "CONJ-5.2.abc",
        "CONJ-5.3.ab", "MUT-THM-1.1.i", "MUT-THM-1.2", "MUT-ID-1.8",
        "MUT-LEM-2.3",
    }

    def test_registry_is_exhaustive(self):
        assert set(CLAIMS) == self.EXPECTED_IDS

    def test_every_claim_has_kind_and_statement(self):
        kinds = {"identity", "divisibility", "congruence", "integrality",
                 "polynomial-identity", "polynomial-divisibility"}
        for claim in CLAIMS.values():
            assert claim.kind in kinds
            assert claim.statement

    def test_suites_cover_all_non_mutation_claims(self):
        in_suites = set(SUITES["all"])
        assert in_suites == {c for c in CLAIMS if not c.startswith("MUT-")}
        assert len(SUITES["all"]) == len(set(SUITES["all"]))


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
        overrides = dict(GRID_SMALL) if "b" in CLAIMS[claim_id].param_names else {"n_max": 15}
        if "p" in CLAIMS[claim_id].param_names:
            overrides = {"prime_hi": 60}
    report = verify_claim(claim_id, overrides)
    assert report.status == "verified", report.counterexamples[:2]
    assert report.params["checked"] > 0


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
        # every entry k <= min(m, n-1) of rows m <= 2n+1, against the full-degree
        # [m k]_q folded here; n = 1 folds everything onto one entry
        for n in range(1, 13):
            rows = list(_folded_q_binomial_rows(n, 2 * n + 1))
            assert len(rows) == 2 * n + 2
            for m, row in enumerate(rows):
                assert len(row) == min(m, n - 1) + 1, (n, m)
                for k, residue in enumerate(row):
                    c = q_binomial(m, k).coeffs
                    assert list(residue) == [sum(c[i::n]) for i in range(n)], (n, m, k)

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


def _eq_2_8_rhs(n: int) -> Fraction:
    rhs = Fraction(1 + (4 * n + 3) * (-3) ** (n + 1))
    for j in range(n + 1):
        rhs += Fraction((-3) ** (n - j) * (4 * n - 2 * j + 1)
                        * factorial(n + j + 3) * factorial(2 * j + 3),
                        (n + 2) * factorial(n - j) * (j + 2) * factorial(j + 1) ** 4)
    return rhs


def _eq_3_4_rhs(n: int) -> Fraction:
    rhs = Fraction(0)
    for k in range(n):
        rhs += Fraction(claims._a_coeff(n, k) * (-3) ** (n - k)
                        * factorial(n + k) * factorial(2 * k),
                        factorial(n - k - 1) * factorial(k) ** 4 * (k + 1))
    return Fraction(2, 9) * rhs


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
                base = 1 + (4 * n + 3) * (-3) ** (n + 1)
                assert claims._eq_2_8_sum(n) == (n + 2) * (_eq_2_8_rhs(n) - base)

    def test_eq_3_4_single_sum(self):
        for n in range(1, 16):
            assert 2 * claims._eq_3_4_sum(n) == 9 * _eq_3_4_rhs(n)

    def test_eq_4_11_closed_form(self):
        # the small test grid, d = 0 at (2, 1) included, and both deltas
        for b in GRID_SMALL["b_set"]:
            for c in GRID_SMALL["c_set"]:
                for delta in (0, 1):
                    for n in range(1, 16):
                        big_l, total = claims._eq_4_11_sum(b, c, delta, n)
                        assert all(big_l % k == 0 for k in range(1, n + delta + 1))
                        assert total == 2 * big_l * _eq_4_11_rhs(b, c, delta, n)

    @pytest.mark.parametrize("acc, check, point, rhs", [
        ("_E28_LHS", claims._check_eq_2_8, 7, lambda: f"telescoped form = {_eq_2_8_rhs(7)}"),
        ("_S411", claims._check_eq_4_11, (3, 2, 1, 5),
         lambda: f"closed form = {_eq_4_11_rhs(3, 2, 1, 5)}"),
    ], ids=["EQ-2.8", "EQ-4.11"])
    def test_witness_text_is_the_rational_value(self, monkeypatch, acc, check, point, rhs):
        monkeypatch.setattr(claims, acc, claims._Acc(0, lambda prev, n, key: 0))
        kind, _, text = check(point)
        assert kind == "fail" and text == rhs()


# The (b, c)-sums and LEM-2.4's residue written out term by term with
# math.comb, as the claims state them.  The checkers evaluate cached
# coefficient rows (and LEM-2.4 running residues mod p) instead, and must
# report the same values.

def _lem_3_1_b_rhs(b: int, c: int, k: int) -> int:
    d = b * b - 4 * c
    return sum(comb(k + j, 2 * j) * comb(2 * j, j) ** 2 * c ** j * d ** (k - j)
               for j in range(k + 1))


def _lem_4_1_rhs(b: int, c: int, n: int) -> int:
    d = b * b - 4 * c
    return b * sum((n - j) * comb(n + j, 2 * j) * comb(2 * j, j) ** 2
                   * c ** j * d ** (n - 1 - j) for j in range(n))


def _rem_2_1_rhs(b: int, c: int, n: int) -> int:
    d = b * b - 4 * c
    return sum(comb(n + k + 1, 2 * k) * comb(2 * k, k) * comb(2 * k, k + 1)
               * c ** (k - 1) * d ** (n + 1 - k) for k in range(1, n + 2))


def _eq_4_11_comb_sum(b: int, c: int, delta: int, n: int) -> tuple[int, int]:
    d = b * b - 4 * c
    big_l = lcm(*range(1, n + delta + 1))
    return big_l, b * (n * (n + 1)) ** (delta + 1) * sum(
        comb(n - 1, j) * comb(n + j + 1, j) * comb(2 * j, j) * (big_l // (j + delta + 1))
        * c ** j * d ** (n - 1 - j) for j in range(n))


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
            _, text = _fail_texts(monkeypatch, seq, table, check, point)
            assert text == prefix + str(rhs(*point)), point

    def test_eq_4_11_sum(self):
        for b, c, n in _grid_small_points(1):
            for delta in (0, 1):
                assert claims._eq_4_11_sum(b, c, delta, n) == _eq_4_11_comb_sum(b, c, delta, n)

    def test_eq_3_4_rows(self, monkeypatch):
        # the left side is the double sum whose inner rows come from the cache
        for n in range(1, 16):
            text, _ = _fail_texts(monkeypatch, claims, "_eq_3_4_sum", claims._check_eq_3_4, n)
            assert text == f"double sum = {_eq_3_4_lhs(n)}", n

    def test_lem_2_1_a_polynomial(self, monkeypatch):
        monkeypatch.setattr(claims, "_S_POLY", seq._PrefixCache(
            lambda _prefix, n, _key: Poly((_HUGE,)), start=1))
        for n in range(1, 16):
            kind, _, rhs = claims._check_lem_2_1_a(n)
            assert kind == "fail" and rhs == _lem_2_1_a_rhs(n).render(), n

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
    def test_default_interpretation_recorded_and_verified(self, monkeypatch):
        monkeypatch.delenv("MOTZKINLAB_CONJ59_PREFACTOR", raising=False)
        report = verify_claim("CONJ-5.3.ab", {"n_max": 8, "h_max": 2, "m_max": 2})
        assert report.status == "verified"
        assert report.params["notes"]["prefactor_5_9"] == "gcd(2,m-1,n)"

    def test_alternative_interpretation_fails_at_m_1(self, monkeypatch):
        monkeypatch.setenv("MOTZKINLAB_CONJ59_PREFACTOR", "gcd(2^(m-1),n)")
        report = verify_claim("CONJ-5.3.ab", {"n_max": 6, "h_max": 1, "m_max": 1})
        assert report.params["notes"]["prefactor_5_9"] == "gcd(2^(m-1),n)"
        assert report.status == "counterexample"
        assert report.counterexamples[0] == {
            "params": {"part": "5.9", "h": 1, "m": 1, "n": 2},
            "lhs": "coefficient of x^1 = 7/2", "rhs": "an integer"}


class TestMutationSensitivity:
    @pytest.mark.parametrize("claim_id", ["MUT-THM-1.1.i", "MUT-THM-1.2",
                                          "MUT-ID-1.8", "MUT-LEM-2.3"])
    def test_mutation_yields_counterexample(self, claim_id):
        report = verify_claim(claim_id)
        assert report.status == "counterexample"
        first = report.counterexamples[0]["params"]["n"]
        assert first <= 25

    def test_stop_on_first(self):
        report = verify_claim("MUT-THM-1.1.i", stop_on_first=True)
        assert len(report.counterexamples) == 1


# every dependent reads index 7 within these ranges; grids only at (3, 2)
_SMALL_AT_3_2 = {"n_max": 12, "prime_hi": 50, "b_set": [3], "c_set": [2]}


@pytest.mark.parametrize("table, key, dependents", [
    (seq._GEN_MOTZKIN, (1, 1),
     ("THM-1.1.i", "THM-1.1.ii", "LEM-2.2", "EQ-2.11", "ID-1.8")),
    (seq._GEN_TRINOMIAL, (1, 1), ("THM-1.2", "LEM-3.2")),
    (seq._GEN_TRINOMIAL, (3, 2),
     ("COR-1.1.ab", "THM-1.3.a", "THM-1.3.b", "LEM-3.1.a", "LEM-3.1.b", "LEM-4.1",
      "EQ-4.11")),
    (seq._GEN_MOTZKIN, (3, 2),
     ("COR-1.1.c", "COR-1.1.d", "THM-1.3.c", "THM-1.3.d", "REM-2.1", "LEM-2.1.b")),
], ids=["M", "T", "D=T(3,2)", "s=M(3,2)"])
def test_perturbed_table_entry_is_caught_and_reset_clears_it(table, key, dependents):
    """One wrong table entry (index 7) must refute every claim that reads it,
    through every accumulator built on it; after the one reset the same
    claims verify again, so no cache keeps the wrong value."""
    def statuses():
        return {cid: verify_claim(cid, _SMALL_AT_3_2).status for cid in dependents}

    seq._reset_caches()
    try:
        table.prefix(40, key)
        table._data[key][7] += 1
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
    (claims._EQ411_ROW, 0, lambda e: (e[0], _bump3(e[1])), {"EQ-4.11": _REFUTED}),
    (claims._EQ411_ROW, 1, lambda e: (e[0], _bump3(e[1])), {"EQ-4.11": _REFUTED}),
], ids=["T^2", "M^2", "EQ-4.11-delta0", "EQ-4.11-delta1"])
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


def _bump_k1(residues) -> list:
    """The per-k residues with coefficient 3 of the k = 1 residue plus 1."""
    out = list(residues)
    out[1] = _bump3(out[1])
    return out


@pytest.mark.parametrize("cache, key, i, part", [
    (claims._Q29_FACTORS, 2, 7, 0),
    (claims._Q29_FACTORS, 2, 7, 1),
    (claims._Q29_FACTORS, 2, 7, 2),
    (claims._Q29_CHAIN, (7, 2), 1, None),
], ids=["[k+w][2k k]", "[n+1 k]", "[n+k k]", "b-chain"])
def test_perturbed_q_factor_is_caught_and_reset_clears_it(cache, key, i, part):
    """Coefficient 3 of the k = 1 residue of one cached LEM-2.3 list at n = 7,
    plus 1, must refute the claim; after the one reset it verifies again."""
    small = {"n_max": 8, "qexp_a_max": 2, "qexp_b_max": 2}
    seq._reset_caches()
    try:
        entry = cache.at(i, key)
        if part is None:
            entry = _bump_k1(entry)
        else:
            entry = tuple(_bump_k1(f) if j == part else f for j, f in enumerate(entry))
        cache._data[key][i - cache._start] = entry
        assert verify_claim("LEM-2.3", small).status == "counterexample"
    finally:
        seq._reset_caches()
    assert verify_claim("LEM-2.3", small).status == "verified"


def test_concurrent_q_factor_fills_agree_and_do_not_deadlock():
    # a _Q29_CHAIN fill takes _Q29_FACTORS's lock inside its own; threads
    # that start from either cache, in opposite n orders, must all finish
    # with the serial residues
    points = [(n, a, bexp, shift) for n in range(1, 11) for a in (1, 2)
              for bexp in (0, 1, 2) for shift in (2, 3)]
    seq._reset_caches()
    expected = [_q_sum_2_9(*pt) for pt in points]
    n_threads, got, errors = 6, [], []

    def work(start: threading.Barrier, order: int) -> None:
        try:
            start.wait()
            if order % 3 == 2:
                for n in range(10, 0, -1):
                    claims._Q29_FACTORS.at(n, 3)
            pts = points if order % 2 else points[::-1]
            out = {pt: _q_sum_2_9(*pt) for pt in pts}
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
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert got == [expected] * (3 * n_threads)


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
    rem = total % Poly((-d, 0, 1))
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

    def test_suite_stop_on_first_counterexample(self):
        # CONJ-5.1.b fails within the conjectures suite; later claims are skipped
        reports = run_suite("conjectures",
                            {"n_max": 6, "prime_hi": 40, "h_max": 1, "m_max": 1},
                            stop_on_first=True)
        assert reports[-1].claim == "CONJ-5.1.b"
        assert reports[-1].status == "counterexample"
        assert len(reports[-1].counterexamples) == 1
        assert [r.claim for r in reports] == ["CONJ-5.1.a", "CONJ-5.1.b"]


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
