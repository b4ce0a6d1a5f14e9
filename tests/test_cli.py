"""End-to-end CLI tests: exit codes, output formats, ordering invariance."""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import subprocess
import sys

import pytest

from motzkinlab import claims, cli, sequences as seq, verify
from motzkinlab.cli import main
from motzkinlab.reports import VerificationReport, _digits

W_VALUES = [-1, -1, 1, 5, 13, 29, 63, 139, 317, 749, 1827, 4575, 11699]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="the interpreter has no limit on decimal digits")


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """The interpreter's limit on int-to-str conversion set to ``limit`` (0: none) inside."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestSeq:
    def test_motzkin(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "motzkin", "--max", "5")
        assert code == 0
        values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == [1, 1, 2, 4, 9, 21]

    def test_w_thirteen_values(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "W", "--max", "12")
        assert code == 0
        values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert values == W_VALUES

    def test_unknown_sequence_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "seq", "bogus")
        assert code == 2
        assert "unknown sequence" in err

    def test_schroder_little_starts_at_1(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "schroder-little", "--max", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1\t")
        assert [int(l.split("\t")[1]) for l in lines] == [1, 3, 11, 45]

    def test_generalized_params(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "trinomial", "--max", "4",
                               "--b", "3", "--c", "2")
        assert code == 0
        assert [int(l.split("\t")[1]) for l in out.strip().splitlines()] == [1, 3, 13, 63, 321]

    @pytest.mark.parametrize("params", [(), ("--b", "1", "--c", "1")], ids=["plain", "b-c"])
    def test_negative_max_exits_2(self, capsys, params):
        # --max is checked before --b/--c, so both paths give the same line
        code, out, err = run_cli(capsys, "seq", "motzkin", "--max", "-1", *params)
        assert (code, out) == (2, "")
        assert err == "error: --max must be >= 0 for 'motzkin'\n"

    def test_crash_in_a_sequence_exits_3(self, capsys, monkeypatch):
        # seq runs under the handler of verify and suite: exit 1 means refuted
        def crash(n):
            raise ValueError(f"boom at {n}")

        monkeypatch.setitem(cli._SEQUENCES, "motzkin", (0, crash))
        code, out, err = run_cli(capsys, "seq", "motzkin", "--max", "3")
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == "error: internal error: ValueError: boom at 0"
        assert "Traceback (most recent call last):" in err

    @needs_digit_limit
    def test_values_past_the_digit_limit_print_in_hex(self, capsys):
        # a value prints in decimal below 10**4300 in absolute value and in
        # exact hex from there on, whatever the interpreter's limit: at the
        # lowest limit it takes, M_1351..M_1355 have too many digits for str()
        # and still print in decimal, as at the default limit
        with int_digit_limit(640):
            code, out, err = run_cli(capsys, "seq", "motzkin", "--max", "1355")
            edges = [_digits(x) for x in (10 ** 4300 - 1, 10 ** 4300, -10 ** 4300)]
        assert (code, err) == (0, "")
        assert len(str(seq.motzkin(1351))) > 640 >= len(str(seq.motzkin(1350)))
        rows = [line.split("\t") for line in out.splitlines()]
        assert [int(n) for n, _ in rows] == list(range(1356))
        for n, text in rows:
            assert text == str(seq.motzkin(int(n)))
        assert edges == ["9" * 4300, hex(10 ** 4300), hex(-10 ** 4300)]

    @needs_digit_limit
    def test_output_does_not_depend_on_the_digit_limit(self, capsys):
        # MUT-THM-1.1.i's witness sums and the Motzkin numbers to n = 1400 have
        # more than 640 and fewer than 4300 digits: the default limit, 640 and
        # no limit print the same decimal text, parsed once the limit is back
        runs = []
        for limit in (sys.int_info.default_max_str_digits, 640, 0):
            with int_digit_limit(limit):
                runs.append((
                    run_cli(capsys, "verify", "MUT-THM-1.1.i", "--n-max", "1400",
                            "--format", "json"),
                    run_cli(capsys, "seq", "motzkin", "--max", "1400")))
        same = [(code, [line for line in out.splitlines() if '"elapsed_ms": ' not in line],
                 err, seq_run) for (code, out, err), seq_run in runs]
        assert same[1:] == same[:1] * 2
        report, rows = runs[0]
        assert report[0] == 1 and rows[0] == 0 and report[2] == rows[2] == ""
        witnesses = json.loads(report[1])[0]["counterexamples"]
        texts = [x["lhs"].removeprefix("2*sum = ").split(" = ")[0] for x in witnesses]
        assert max(map(len, texts)) > 640
        assert [int(t) for t in texts] == [2 * claims._WSUM_M.at(x["params"]["n"], 2)
                                           for x in witnesses]
        assert [int(line.split("\t")[1]) for line in rows[1].splitlines()] == [
            seq.motzkin(n) for n in range(1401)]

    def test_params_rejected_for_plain_sequence(self, capsys):
        code, _, err = run_cli(capsys, "seq", "catalan", "--max", "3", "--b", "1", "--c", "1")
        assert code == 2
        assert "--b/--c" in err


class TestVerify:
    def test_verified_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "THM-1.1.i", "--n-max", "100")
        assert code == 0
        assert "verified" in out

    def test_unknown_claim_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "NOPE")
        assert code == 2
        assert "unknown claim" in err

    def test_unknown_claim_after_a_known_one_exits_2_before_any_check(self, capsys,
                                                                       monkeypatch):
        claim = claims.CLAIMS["THM-1.1.i"]
        calls = []

        def recording(point):
            calls.append(point)
            return claim.check(point)

        monkeypatch.setitem(claims.CLAIMS, "THM-1.1.i",
                            dataclasses.replace(claim, check=recording))
        code, out, err = run_cli(capsys, "verify", "THM-1.1.i", "NOPE")
        assert (code, out, calls) == (2, "", [])
        assert err.splitlines() == ["error: unknown claim id 'NOPE'"]

    def test_counterexample_exits_1_with_witness_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "MUT-ID-1.8", "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert reports[0]["status"] == "counterexample"
        assert reports[0]["counterexamples"][0]["params"] == {"n": 1}

    def test_multiple_claims(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "LEM-4.3", "ID-2.3",
                               "--n-max", "10", "--format", "json")
        assert code == 0
        assert [r["claim"] for r in json.loads(out)] == ["LEM-4.3", "ID-2.3"]

    def test_several_claims_share_one_pool(self, capsys, monkeypatch):
        pools = []

        class CountingPool(verify.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, out, _ = run_cli(capsys, "verify", "LEM-4.3", "ID-2.3", "--n-max", "10",
                               "--jobs", "2", "--format", "json")
        assert code == 0
        assert [r["claim"] for r in json.loads(out)] == ["LEM-4.3", "ID-2.3"]
        assert len(pools) == 1

    def test_stop_on_first_ends_a_multi_claim_verify(self, capsys):
        # like a suite, the run ends with the first claim that has a counterexample
        code, out, _ = run_cli(capsys, "verify", "MUT-THM-1.1.i", "MUT-THM-1.2",
                               "--stop-on-first", "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert [r["claim"] for r in reports] == ["MUT-THM-1.1.i"]
        assert len(reports[0]["counterexamples"]) == 1

    def test_invalid_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "LEM-4.3", "--n-max", "-1")
        assert code == 2
        assert "invalid range" in err

    def test_jobs_below_1_exits_2(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a claim ran")

        monkeypatch.setattr(cli, "run_claims", must_not_run)
        for argv in (("verify", "THM-1.1.i", "--jobs", "0"), ("suite", "all", "--jobs", "-3")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: --jobs must be >= 1, got {argv[-1]}"]

    def test_jobs_lowered_to_usable_cpus(self, capsys, monkeypatch):
        # only the jobs value that reaches the engine is recorded: no pool starts
        seen = []

        def record_run(claim_ids, overrides, *, deep, stop_on_first, jobs):
            seen.append(jobs)
            return [VerificationReport(claim_id, {}, "verified") for claim_id in claim_ids]

        monkeypatch.setattr(cli, "run_claims", record_run)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for argv in (("verify", "THM-1.1.i", "--jobs", str(10 ** 6)),
                     ("verify", "THM-1.1.i", "--jobs", "2"),
                     ("suite", "all", "--jobs", "3"),
                     ("suite", "all", "--jobs", "4")):
            assert run_cli(capsys, *argv, "--format", "json")[0] == 0
        assert seen == [3, 2, 3, 3]

    def test_empty_prime_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "THM-1.1.ii",
                                 "--prime-min", "50", "--prime-max", "10")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: invalid range: prime_lo 50 exceeds prime_hi 10"]

    def test_huge_prime_bound_exits_2_without_sieving(self, capsys, monkeypatch):
        def must_not_sieve(lo, hi):
            raise AssertionError(f"sieve of {hi + 1} bytes requested")

        monkeypatch.setattr(claims.modular, "primes_in", must_not_sieve)
        code, out, err = run_cli(capsys, "verify", "THM-1.1.ii", "--prime-max", str(10 ** 12))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: invalid range: prime_hi 1000000000000 exceeds 10**7"]

    def test_zero_points_report_skipped_and_exit_0(self, capsys):
        code, out, err = run_cli(capsys, "verify", "THM-1.1.i", "--n-max", "0",
                                 "--format", "json")
        assert code == 0
        assert err == ""
        report = json.loads(out)[0]
        assert report["status"] == "skipped"
        assert report["params"]["checked"] == 0 and report["params"]["skipped"] == []

    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a claim ran before --out was found unwritable")

        monkeypatch.setattr(cli, "run_claims", must_not_run)
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "MUT-ID-1.8", "--out", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.exists()

    def test_crash_in_a_checker_exits_3(self, capsys, monkeypatch):
        def crash(point):
            raise ZeroDivisionError(f"boom at {point}")

        claim = claims.CLAIMS["LEM-4.3"]
        monkeypatch.setitem(claims.CLAIMS, "LEM-4.3", dataclasses.replace(claim, check=crash))
        code, out, err = run_cli(capsys, "verify", "LEM-4.3", "--n-max", "3")
        assert code == 3
        assert out == ""
        assert err.splitlines()[0] == "error: internal error: ZeroDivisionError: boom at 0"
        assert "Traceback (most recent call last):" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_integral_in_a_checker_exits_3_naming_it(self, capsys, monkeypatch, jobs):
        # at --jobs 2 the exception crosses the pool, where it once broke it
        claim = claims.CLAIMS["THM-1.1.i"]

        def check(n):
            if n == 11:
                raise claims.NonIntegral(f"remainder 7 at n = {n}", 7)
            return claim.check(n)

        class ForkPool(verify.ProcessPoolExecutor):  # forked workers see the patched registry
            def __init__(self, max_workers):
                super().__init__(max_workers, mp_context=multiprocessing.get_context("fork"))

        monkeypatch.setitem(claims.CLAIMS, claim.id, dataclasses.replace(claim, check=check))
        monkeypatch.setattr(verify, "ProcessPoolExecutor", ForkPool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code, out, err = run_cli(capsys, "verify", "THM-1.1.i", "--n-max", "25", "--jobs", jobs)
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == "error: internal error: NonIntegral: remainder 7 at n = 11"

    def test_lucas_fold_disagreement_exits_3(self, capsys, monkeypatch):
        # a doubled q-Lucas shape [2 1]_q refutes LEM-2.3 at n = 4, the first
        # point with a divisor d >= 4, where the fold mod q^4 - 1 does not: an
        # internal error, never a counterexample
        q_binomial = claims.q_binomial
        monkeypatch.setattr(claims, "q_binomial",
                            lambda n, k: q_binomial(n, k) * (2 if (n, k) == (2, 1) else 1))
        code, out, err = run_cli(capsys, "verify", "LEM-2.3", "--n-max", "14")
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal error: CheckerDisagreement: q-Lucas refutes "
                              "(n, a, b, w) = (4, 1, 0, 2)")

    def test_grid_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "THM-1.3.a", "--n-max", "6",
                               "--b-set", "1..2", "--c-set=-1,1",
                               "--format", "json")
        assert code == 0
        rng = json.loads(out)[0]["params"]["range"]
        assert rng["b_set"] == [1, 2] and rng["c_set"] == [-1, 1]

    def test_oversized_int_set_exits_2(self, capsys):
        # a set's size is counted from its bounds, so one value over the
        # bound is refused before the set is built, as is a range of 10**12
        assert len(cli._int_set("1..10000")) == 10 ** 4
        for text in ("1..10001", "1..10000,0"):
            with pytest.raises(argparse.ArgumentTypeError, match="more than 10000 values"):
                cli._int_set(text)
        for flag in ("--b-set", "--c-set"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "THM-1.3.a", f"{flag}=1..{10 ** 12}", "--n-max", "3"])
            assert exc.value.code == 2
            assert "has more than 10000 values" in capsys.readouterr().err

    def test_repeated_set_values_are_checked_once(self, capsys):
        assert cli._int_set("3,1..3,2,-1") == (3, 1, 2, -1)
        code, out, _ = run_cli(capsys, "verify", "THM-1.3.a", "--b-set", "1,1", "--c-set", "1",
                               "--n-max", "3", "--format", "json")
        assert code == 0
        report = json.loads(out)[0]
        assert report["params"]["range"]["b_set"] == [1]
        assert report["params"]["checked"] == 3

    def test_repeated_claim_id_runs_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "LEM-4.3", "ID-2.3", "LEM-4.3",
                               "--n-max", "10", "--format", "json")
        assert code == 0
        assert [r["claim"] for r in json.loads(out)] == ["LEM-4.3", "ID-2.3"]

    def test_exponent_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "LEM-2.3", "--n-max", "6",
                               "--a-max", "1", "--b-exp-max", "1",
                               "--format", "json")
        assert code == 0
        rng = json.loads(out)[0]["params"]["range"]
        assert rng["qexp_a_max"] == 1 and rng["qexp_b_max"] == 1


class TestSuite:
    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_theorems_small_ranges(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "theorems", "--n-max", "8",
                               "--prime-max", "30")
        assert code == 0
        assert out.count("verified") == 10

    def test_json_out_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "suite", "identities", "--n-max", "6",
                               "--prime-max", "20", "--format", "json",
                               "--out", str(path))
        assert code == 0
        assert str(path) in out
        reports = json.loads(path.read_text())
        assert reports[0]["claim"] == "ID-1.8"
        for r in reports:
            assert list(r) == ["claim", "params", "status", "counterexamples",
                               "table", "elapsed_ms"]

    def test_jobs_ordering_invariance(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["suite", "lemmas", "--n-max", "6", "--prime-max", "20",
                "--h-max", "1", "--m-max", "1", "--format", "json"]
        assert run_cli(capsys, *args, "--jobs", "1", "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--jobs", "4", "--out", str(out2))[0] == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        for r in a + b:
            r["elapsed_ms"] = None
        assert a == b

    def test_conjectures_counterexample_exit_code(self, capsys):
        # the mod-p^2 conjecture claim has genuine counterexamples from p = 11
        code, out, _ = run_cli(capsys, "suite", "conjectures", "--n-max", "6",
                               "--prime-max", "20", "--h-max", "1", "--m-max", "1")
        assert code == 1
        assert "COUNTEREXAMPLE" in out

    def test_stop_on_first(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "conjectures", "--n-max", "6",
                               "--prime-max", "20", "--h-max", "1", "--m-max", "1",
                               "--stop-on-first", "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert reports[-1]["claim"] == "CONJ-5.1.b"
        assert len(reports[-1]["counterexamples"]) == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "theorems", "--n-max", "5",
                               "--prime-max", "20", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "claim,param,status,lhs,rhs,witness"


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "motzkinlab.cli", "seq", "catalan", "--max", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert [int(l.split("\t")[1]) for l in proc.stdout.strip().splitlines()] == [1, 1, 2, 5, 14]

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "motzkinlab.cli", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
