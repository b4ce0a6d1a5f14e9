"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every check is exact (zero tolerance).  Most criteria require a claim to
verify.  The mod-p^2 conjecture congruence CONJ-5.1.b is the exception: it
has genuine counterexamples starting at p = 11 (it holds mod p but not mod
p^2), and its criterion asserts exactly those witnesses, recomputed from the
defining sum of W_k without the library's sequences or accumulators.
"""
from __future__ import annotations

import hashlib
import math
import time

import pytest

from motzkinlab import sequences as seq
from motzkinlab.claims import CLAIMS, s_quotient, t_quotient
from motzkinlab.reports import reports_to_json
from motzkinlab.verify import run_suite, verify_claim

S_GOLDEN = [6, 23, 90, 432, 2286, 13176, 80418, 513764, 3400518, 23167311]
T_GOLDEN = [51, 271, 1398, 8505, 54387, 367551, 2570931, 18510739, 136282347]
W_GOLDEN = [-1, -1, 1, 5, 13, 29, 63, 139, 317, 749, 1827, 4575, 11699]


def criterion(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def claim_ok(claim_id: str, overrides=None, **kwargs):
    report = verify_claim(claim_id, overrides, **kwargs)
    detail = ""
    if report.status != "verified":
        first = report.counterexamples[:1]
        detail = f"status={report.status}, first witness: {first}"
    return report.status == "verified", detail


def test_golden_tables():
    seq._reset_caches()
    start = time.perf_counter()
    s_vals = [s_quotient(n) for n in range(1, 11)]
    t_vals = [t_quotient(n) for n in range(2, 11)]
    w_vals = [seq.motzkin_analog_w(n) for n in range(13)]
    elapsed = time.perf_counter() - start
    ok = (s_vals == S_GOLDEN and t_vals == T_GOLDEN and w_vals == W_GOLDEN
          and elapsed < 1.0)
    criterion("golden tables s(1..10), t(2..10), W_0..W_12 exact in < 1 s", ok,
              f"elapsed={elapsed:.3f}s s={s_vals == S_GOLDEN} "
              f"t={t_vals == T_GOLDEN} W={w_vals == W_GOLDEN}")


def test_thm_1_1_i_integrality_to_2000():
    ok, detail = claim_ok("THM-1.1.i", {"n_max": 2000})
    criterion("THM-1.1.i integrality for all n <= 2000", ok, detail)


def test_thm_1_1_ii_congruence_mod_p_squared():
    ok, detail = claim_ok("THM-1.1.ii", {"prime_hi": 1000})
    criterion("THM-1.1.ii congruence mod p^2 for primes 3 < p <= 1000", ok, detail)


def test_thm_1_2_divisibility_to_1000():
    ok, detail = claim_ok("THM-1.2", {"n_max": 1000})
    criterion("THM-1.2 divisibility for 2 <= n <= 1000", ok, detail)


@pytest.mark.parametrize("claim_id", ["THM-1.3.a", "THM-1.3.b", "THM-1.3.c", "THM-1.3.d"])
def test_thm_1_3_grid_to_100(claim_id):
    ok, detail = claim_ok(claim_id, {"n_max": 100})
    criterion(f"{claim_id} over the (b,c) grid with d != 0 for n <= 100", ok, detail)


def test_id_1_8_to_500():
    ok, detail = claim_ok("ID-1.8", {"n_max": 500})
    criterion("ID-1.8 ((1.7) at b = c = 1) for n <= 500", ok, detail)


@pytest.mark.parametrize("claim_id", ["COR-1.1.ab", "COR-1.1.c", "COR-1.1.d"])
def test_corollary_1_1_to_300(claim_id):
    ok, detail = claim_ok(claim_id, {"n_max": 300})
    criterion(f"{claim_id} for n <= 300", ok, detail)


@pytest.mark.parametrize("claim_id", ["ID-2.3", "LEM-2.1.a", "LEM-4.5", "LEM-4.6", "EQ-4.13"])
def test_polynomial_identities_to_50(claim_id):
    ok, detail = claim_ok(claim_id, {"n_max": 50})
    criterion(f"{claim_id} exact coefficientwise for n <= 50", ok, detail)


def test_rem_2_1_grid_to_60():
    ok, detail = claim_ok("REM-2.1", {"n_max": 60})
    criterion("REM-2.1 ((2.6)) over the (b,c) grid for n <= 60", ok, detail)


def test_sqrt_d_substitution():
    ok1, d1 = claim_ok("LEM-2.1.b", {"n_max": 15, "b_set": (1,), "c_set": (1,)})
    ok2, d2 = claim_ok("LEM-2.1.b", {"n_max": 50, "b_set": (3,), "c_set": (2, 0)})
    criterion("LEM-2.1.b ((2.5)) on non-square d (1,1) n <= 15 and square d "
              "(3,2),(3,0) n <= 50", ok1 and ok2, d1 or d2)


def test_q_divisibility_to_40():
    ok, detail = claim_ok("LEM-2.3", {"n_max": 40, "qexp_a_max": 2, "qexp_b_max": 2})
    criterion("LEM-2.3 divisibility by [n]_q for n <= 40, exponents <= 2", ok, detail)


def test_q_divisibility_to_80():
    ok, detail = claim_ok("LEM-2.3", {"n_max": 80, "qexp_a_max": 2, "qexp_b_max": 2})
    criterion("LEM-2.3 divisibility by [n]_q for n <= 80, exponents <= 2", ok, detail)


def test_lem_2_4_congruence_to_1000():
    lhs_p5 = (2 * pow(3, -1, 5) + 6 * pow(18, -1, 5)) % 5
    rhs_p5 = (pow(3, 4) - 1) // 5 % 5
    pinned = lhs_p5 == rhs_p5 == 1
    ok, detail = claim_ok("LEM-2.4", {"prime_hi": 1000})
    criterion("LEM-2.4 congruence for primes 3 < p <= 1000 (p = 5 pinned: both sides 1)",
              ok and pinned, detail)


@pytest.mark.parametrize("claim_id,overrides", [
    ("LEM-3.1.a", {"n_max": 100}),
    ("LEM-3.1.b", {"n_max": 100}),
    ("LEM-3.2", {"n_max": 100}),
    ("EQ-3.partial", {"n_max": 60}),
    ("EQ-3.4", {"n_max": 100}),
    ("LEM-3.3", {"n_max": 100}),
    ("LEM-3.4", {"n_max": 100, "qexp_a_max": 3, "qexp_b_max": 3}),
    ("LEM-4.1", {"n_max": 100}),
    ("EQ-4.2", {"n_max": 60}),
    ("LEM-4.2", {"n_max": 100}),
    ("LEM-4.3", {"n_max": 100}),
    ("LEM-4.4.a", {"n_max": 100}),
    ("LEM-4.4.b", {"n_max": 100}),
    ("EQ-4.10", {"n_max": 60}),
    ("EQ-4.11", {"n_max": 100}),
    ("EQ-4.12", {"n_max": 60}),
    ("REC-w", {"n_max": 50}),
    ("EQ-2.8", {"n_max": 100}),
    ("LEM-2.2", {"n_max": 200}),
    ("EQ-2.11", {"n_max": 200}),
    ("REC-W", {"n_max": 1000}),
])
def test_support_identities(claim_id, overrides):
    ok, detail = claim_ok(claim_id, overrides)
    criterion(f"{claim_id} over its stated range {overrides}", ok, detail)


def test_conjecture_5_2_to_2000():
    ok, detail = claim_ok("CONJ-5.1.a", {"n_max": 2000})
    criterion("conjecture (5.2) congruence mod 2n for n <= 2000", ok, detail)


def _w_by_definition(n: int) -> int:
    """W_n = sum_j C(n, 2j) * C(2j, j)/(2j - 1), straight from the definition."""
    total = 0
    for j in range(n // 2 + 1):
        term, rem = divmod(math.comb(n, 2 * j) * math.comb(2 * j, j), 2 * j - 1)
        assert rem == 0, f"W_{n}: term j = {j} is not an integer"
        total += term
    return total


def test_conjecture_5_3_primes_to_500():
    # The printed mod-p^2 statement is false from p = 11 on (quotient 82 vs
    # symbol side 5 mod 121); it does hold mod p.  The verifier must report
    # exactly the witnesses recomputed here from the defining sum of W_k,
    # with the symbols in closed form: (-1/p) by p mod 4, (p/3) by p mod 3,
    # (3/p) by p mod 12.
    primes = [p for p in range(5, 500, 2)
              if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    w = [_w_by_definition(k) for k in range(primes[-1])]
    prefix = [0]
    for k, w_k in enumerate(w):
        prefix.append(prefix[-1] + (8 * k + 9) * w_k ** 2)

    expected, divides, holds_mod_p = [], True, True
    for p in primes:
        total, p2 = prefix[p], p * p
        divides = divides and total % p == 0
        quotient = total // p
        rhs = (24 + 10 * (1 if p % 4 == 1 else -1) - 9 * (1 if p % 3 == 1 else -1)
               - 18 * (1 if p % 12 in (1, 11) else -1))
        holds_mod_p = holds_mod_p and (quotient - rhs) % p == 0
        if (quotient - rhs) % p2:
            expected.append({"params": {"p": p},
                             "lhs": f"(sum/p) = {quotient % p2} (mod p^2)",
                             "rhs": f"symbol side = {rhs % p2} (mod p^2)"})
    oracle_ok = (w[:len(W_GOLDEN)] == W_GOLDEN and divides and holds_mod_p
                 and [c["params"]["p"] for c in expected] == [p for p in primes if p >= 11]
                 and expected[0]["lhs"] == "(sum/p) = 82 (mod p^2)"
                 and expected[0]["rhs"] == "symbol side = 5 (mod p^2)")

    report = verify_claim("CONJ-5.1.b", {"prime_hi": 500})
    skipped = [point for point, _reason in report.params["skipped"]]
    ok = (oracle_ok and report.status == "counterexample"
          and skipped == [{"p": 3}] and report.params["checked"] == len(primes)
          and report.counterexamples == expected)
    criterion("conjecture (5.3) quotient congruence mod p^2 for odd primes p <= 500: "
              f"the {len(expected)} counterexamples p = 11..{primes[-1]} match the "
              "defining-sum recomputation, and each holds mod p",
              ok, f"oracle_ok={oracle_ok}, status={report.status}, skipped={skipped}, "
                  f"checked={report.params['checked']} of {len(primes)}, "
                  f"first witness: {report.counterexamples[:1]} vs {expected[:1]}")


def test_remark_5_1_primes_to_500():
    ok, detail = claim_ok("REM-5.1", {"prime_hi": 500})
    criterion("sum of W_k^2 = 2 mod p for primes 3 < p <= 500", ok, detail)


def test_conjectures_5_4_to_5_6():
    ok, detail = claim_ok("CONJ-5.2.abc", {"n_max": 40, "h_max": 3, "m_max": 3})
    criterion("conjectures (5.4)-(5.6) integrality for h <= 3, m <= 3, n <= 40",
              ok, detail)


def test_conjectures_5_8_to_5_9():
    ok, detail = claim_ok("CONJ-5.3.ab", {"n_max": 40, "h_max": 3, "m_max": 3})
    criterion("conjectures (5.8)-(5.9) integrality for h <= 3, m <= 3, n <= 40",
              ok, detail)


def test_mutation_sensitivity():
    # every fixture the registry holds, so a new one is checked too
    fixtures = [c for c in CLAIMS if c.startswith("MUT-")]
    assert fixtures
    results = {}
    for claim_id in fixtures:
        report = verify_claim(claim_id, {"n_max": 25})
        results[claim_id] = (report.status == "counterexample"
                             and report.counterexamples[0]["params"]["n"] <= 25)
    ok = all(results.values())
    criterion("mutation sensitivity: every mutated claim fails within n <= 25",
              ok, str(results))


@pytest.fixture(scope="module")
def suite_all_serial():
    """The default suite all, serial: run once for the tests that read it."""
    return run_suite("all", jobs=1)


def test_determinism_suite_all_1_vs_8_workers(suite_all_serial):
    one = suite_all_serial
    eight = run_suite("all", jobs=8)
    a = reports_to_json(one, include_elapsed=False)
    b = reports_to_json(eight, include_elapsed=False)
    # Default-range statuses: everything verifies except the mod-p^2
    # conjecture claim, which has genuine counterexamples from p = 11.
    bad = {r.claim: r.status for r in one
           if r.status != "verified" and r.claim != "CONJ-5.1.b"}
    conj = next(r for r in one if r.claim == "CONJ-5.1.b")
    conj_first = conj.counterexamples[0]["params"] if conj.counterexamples else None
    conj_ok = conj.status == "counterexample" and conj_first == {"p": 11}
    criterion("suite 'all' with 1 worker and 8 workers yields byte-identical "
              "JSON (elapsed excluded), all non-CONJ-5.1.b claims verified, "
              "CONJ-5.1.b refuted first at p = 11",
              a == b and not bad and conj_ok,
              f"identical={a == b}, unexpected statuses={bad}, "
              f"CONJ-5.1.b status={conj.status}, first witness={conj_first}")


def test_suite_all_report_is_pinned(suite_all_serial):
    # the default suite all report, elapsed_ms excluded, is pinned: a change
    # that means to alter the report updates this digest
    report = reports_to_json(suite_all_serial, include_elapsed=False)
    digest = hashlib.sha256(report.encode()).hexdigest()
    criterion("suite 'all' JSON (elapsed excluded) has the recorded sha256",
              digest == "15993f8280296e4092745d42d1b95c5ea949f6234d0466cd2b856197690d0609",
              digest)
