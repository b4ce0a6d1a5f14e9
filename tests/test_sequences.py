"""Sequence tests: pinned small values, dual-formula oracles, and the
specialization lattice tying the generalized families together.

The tables are built by recurrences, and Motzkin, central trinomial,
Delannoy and Schroder numbers are reads of the two (b, c) families, so every
table is also checked against its defining sum computed here with
``math.comb`` alone."""
from __future__ import annotations

import math
import sys
import threading

import pytest

from motzkinlab import sequences as seq


def cat(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def trinomial_sum(n: int, b: int, c: int) -> int:
    return sum(math.comb(n, 2 * k) * math.comb(2 * k, k) * b ** (n - 2 * k) * c ** k
               for k in range(n // 2 + 1))


def motzkin_sum(n: int, b: int, c: int) -> int:
    return sum(math.comb(n, 2 * k) * cat(k) * b ** (n - 2 * k) * c ** k
               for k in range(n // 2 + 1))


def poly_power_coeffs(base: list[int], exp: int) -> list[int]:
    """Self-contained convolution powering, used as an independent oracle."""
    out = [1]
    for _ in range(exp):
        nxt = [0] * (len(out) + len(base) - 1)
        for i, x in enumerate(out):
            if x:
                for j, y in enumerate(base):
                    nxt[i + j] += x * y
        out = nxt
    return out


class TestCatalan:
    def test_small(self):
        assert seq.catalan(0) == 1
        assert seq.catalan(4) == 14

    def test_dual_formula(self):
        for k in range(201):
            assert seq.catalan(k) == math.comb(2 * k, k) - math.comb(2 * k, k + 1)


class TestNarayana:
    def test_small(self):
        assert seq.narayana(4, 2) == 6

    @pytest.mark.parametrize("m", [1, 2, 5, 17, 40])
    def test_first_column(self, m):
        assert seq.narayana(m, 1) == 1

    def test_row_sums_are_catalan(self):
        for m in range(1, 31):
            assert sum(seq.narayana(m, k) for k in range(1, m + 1)) == seq.catalan(m)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            seq.narayana(2, 3)
        with pytest.raises(ValueError):
            seq.narayana(2, 0)


class TestMotzkin:
    def test_small(self):
        assert [seq.motzkin(n) for n in range(6)] == [1, 1, 2, 4, 9, 21]
        assert seq.motzkin(1) == 1

    def test_matches_generalized_at_1_1(self):
        for n in range(501):
            assert seq.motzkin(n) == seq.gen_motzkin(n, 1, 1)

    def test_defining_sum_oracle(self):
        assert seq.motzkin_values(300) == [motzkin_sum(n, 1, 1) for n in range(301)]

    def test_empty_prefix_cold_and_warm(self):
        seq._reset_caches()
        assert seq.motzkin_values(-1) == []
        seq.motzkin(10)
        assert seq.motzkin_values(-1) == []


class TestCentralTrinomial:
    def test_small(self):
        assert [seq.central_trinomial(n) for n in range(6)] == [1, 1, 3, 7, 19, 51]
        assert seq.central_trinomial(0) == 1

    def test_constant_term_oracle(self):
        # constant term of (1 + x + 1/x)^n = coefficient of x^n in (1 + x + x^2)^n
        for n in range(41):
            coeffs = poly_power_coeffs([1, 1, 1], n)
            assert seq.central_trinomial(n) == coeffs[n]

    def test_second_formula(self):
        for n in range(301):
            alt = sum(math.comb(n, k) * math.comb(n - k, k) for k in range(n // 2 + 1))
            assert seq.central_trinomial(n) == alt


class TestGenTrinomial:
    def test_pinned(self):
        assert seq.gen_trinomial(3, 2, 1) == 20 == math.comb(6, 3)
        assert seq.gen_trinomial(0, 5, -3) == 1

    def test_defining_sum_oracle(self):
        for b in range(-4, 5):
            for c in range(-4, 5):
                assert seq.gen_trinomial_values(40, b, c) == [trinomial_sum(n, b, c)
                                                             for n in range(41)], (b, c)

    def test_coefficient_oracle(self):
        # T_n(b, c) is the coefficient of x^n in (x^2 + bx + c)^n
        for b, c in [(1, 1), (3, 2), (-2, 3), (4, -1)]:
            for n in range(21):
                coeffs = poly_power_coeffs([c, b, 1], n)
                assert seq.gen_trinomial(n, b, c) == coeffs[n]

    def test_specializations(self):
        for n in range(201):
            assert seq.gen_trinomial(n, 1, 1) == seq.central_trinomial(n)
            assert seq.gen_trinomial(n, 2, 1) == math.comb(2 * n, n)
            assert seq.gen_trinomial(n, 3, 2) == seq.delannoy(n)


class TestGenMotzkin:
    def test_pinned(self):
        assert seq.gen_motzkin(3, 2, 1) == 14  # Catalan(4)
        assert seq.gen_motzkin(2, 3, 2) == 11  # little Schroder s_3

    def test_defining_sum_oracle(self):
        for b in range(-4, 5):
            for c in range(-4, 5):
                assert seq.gen_motzkin_values(40, b, c) == [motzkin_sum(n, b, c)
                                                           for n in range(41)], (b, c)

    def test_c_zero_collapses_to_powers(self):
        for n in range(51):
            assert seq.gen_motzkin(n, 3, 0) == 3 ** n

    def test_specializations(self):
        for n in range(201):
            assert seq.gen_motzkin(n, 2, 1) == seq.catalan(n + 1)
            assert seq.gen_motzkin(n, 3, 2) == seq.schroder_little(n + 1)


class TestDelannoy:
    def test_small(self):
        assert [seq.delannoy(n) for n in range(5)] == [1, 3, 13, 63, 321]
        assert seq.delannoy(0) == 1

    def test_dual_formula(self):
        for n in range(301):
            alt = sum(math.comb(n + k, 2 * k) * math.comb(2 * k, k) for k in range(n + 1))
            assert seq.delannoy(n) == alt


class TestSchroder:
    def test_little_small(self):
        assert [seq.schroder_little(n) for n in range(1, 5)] == [1, 3, 11, 45]
        assert seq.schroder_little(1) == 1

    def test_little_rejects_zero(self):
        with pytest.raises(ValueError):
            seq.schroder_little(0)

    def test_little_defining_sum_oracle(self):
        # s_n = sum_k N(n, k) 2^(n-k) with N(n, k) = C(n, k) C(n, k-1) / n
        expected = [sum(math.comb(n, k) * math.comb(n, k - 1) // n * 2 ** (n - k)
                        for k in range(1, n + 1)) for n in range(1, 201)]
        assert seq.schroder_little_values(200) == expected

    def test_little_empty_prefix_cold_and_warm(self):
        seq._reset_caches()
        assert seq.schroder_little_values(0) == []
        seq.schroder_little(10)
        assert seq.schroder_little_values(0) == []

    def test_little_matches_gen_motzkin(self):
        for n in range(1, 201):
            assert seq.schroder_little(n) == seq.gen_motzkin(n - 1, 3, 2)

    def test_large_small(self):
        assert [seq.schroder_large(n) for n in range(5)] == [1, 2, 6, 22, 90]
        assert seq.schroder_large(0) == 1

    def test_large_is_twice_little(self):
        for n in range(1, 301):
            assert seq.schroder_large(n) == 2 * seq.schroder_little(n)

    def test_large_defining_sum_oracle(self):
        for n in range(301):
            expected = sum(math.comb(n + k, 2 * k) * cat(k) for k in range(n + 1))
            assert seq.schroder_large(n) == expected


class TestWCoeff:
    def test_small(self):
        assert seq.w_coeff(2, 1) == 1
        assert seq.w_coeff(2, 2) == 2

    @pytest.mark.parametrize("n", [1, 2, 9, 33])
    def test_first_column(self, n):
        assert seq.w_coeff(n, 1) == 1

    def test_inversion_against_narayana(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                total = sum(math.comb(n - j, k - j) * seq.narayana(n, j)
                            for j in range(1, k + 1))
                assert seq.w_coeff(n, k) == total

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            seq.w_coeff(3, 4)


class TestMotzkinAnalogW:
    PINNED = [-1, -1, 1, 5, 13, 29, 63, 139, 317, 749, 1827, 4575, 11699]

    def test_pinned_values(self):
        assert [seq.motzkin_analog_w(n) for n in range(13)] == self.PINNED
        assert seq.motzkin_analog_w(0) == -1

    def test_recurrence(self):
        w = seq.motzkin_analog_w_values(1003)
        for n in range(1001):
            assert (n + 3) * w[n + 3] == (3 * n + 7) * w[n + 2] + (n - 5) * w[n + 1] - 3 * (n + 1) * w[n]

    def test_defining_sum_directly(self):
        for n in range(301):
            total = sum(math.comb(n, 2 * k) * math.comb(2 * k, k) // (2 * k - 1)
                        if k else -1 for k in range(n // 2 + 1))
            assert seq.motzkin_analog_w(n) == total


class TestCaching:
    def test_index_below_start_is_rejected(self):
        # a negative index must not read the warm list from its end
        seq.catalan(5)
        with pytest.raises(ValueError):
            seq._GEN_MOTZKIN.at(-1, (0, 1))

    def test_concurrent_fills_agree_with_the_sums(self):
        # A fill that appended, with steps that read their prefix from the end,
        # often stored a wrong entry in a round like this.
        keys = [(b, c) for b in (-3, 1, 2, 4) for c in (-2, 1, 3)]
        n_max, n_threads = 200, 6
        expected = {key: [trinomial_sum(n, *key) for n in range(n_max + 1)] for key in keys}
        got, errors = [], []

        def work(start: threading.Barrier, by_lookup: bool) -> None:
            try:
                start.wait()
                for key in keys:
                    got.append((key, [seq.gen_trinomial(n, *key) for n in range(n_max + 1)]
                                if by_lookup else seq.gen_trinomial_values(n_max, *key)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                seq._reset_caches()
                start = threading.Barrier(n_threads, timeout=60)
                threads = [threading.Thread(target=work, args=(start, i % 2))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(got) == 20 * n_threads * len(keys)
        assert all(values == expected[key] for key, values in got)
