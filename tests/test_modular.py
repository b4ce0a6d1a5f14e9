"""Modular arithmetic tests: Legendre symbols, Fermat quotients, primes."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab.modular import fermat_quotient, is_prime, legendre, primes_in


def trial_division_primes(hi: int) -> list[int]:
    out = []
    for n in range(2, hi + 1):
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


class TestPrimes:
    def test_small_range(self):
        assert primes_in(2, 10) == [2, 3, 5, 7]

    def test_open_lower_bound(self):
        assert primes_in(4, 20) == [5, 7, 11, 13, 17, 19]

    def test_count_below_ten_thousand(self):
        assert len(primes_in(2, 9999)) == 1229

    def test_matches_trial_division(self):
        assert primes_in(2, 500) == trial_division_primes(500)

    def test_is_prime(self):
        assert is_prime(2) and is_prime(97) and is_prime(2 ** 31 - 1)
        assert not is_prime(1) and not is_prime(91) and not is_prime(561)
        # Carmichael numbers must not fool the test
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)
        primes = set(primes_in(2, 9999))
        assert all(is_prime(n) == (n in primes) for n in range(-5, 10000))
        # the top of the range that ParamRange.validate allows; 3137 * 3163
        # has no factor below 3137, near isqrt(10^7)
        assert is_prime(9999991) and not is_prime(10 ** 7 - 1)
        assert not is_prime(3137 * 3163)


class TestLegendre:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
    def test_one_is_residue(self, p):
        assert legendre(1, p) == 1

    def test_three_mod_seven(self):
        # squares mod 7 are {1, 2, 4}
        assert legendre(3, 7) == -1

    def test_p_over_three(self):
        assert legendre(7, 3) == 1
        assert legendre(5, 3) == -1

    def test_zero_when_divisible(self):
        assert legendre(21, 7) == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(2, 8)
        with pytest.raises(ValueError):
            legendre(2, 2)
        with pytest.raises(ValueError):
            legendre(2, 15)

    def test_matches_residue_enumeration(self):
        for p in primes_in(3, 60):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in squares else -1)

    @given(st.integers(-500, 500), st.integers(-500, 500),
           st.sampled_from(primes_in(3, 200)))
    @settings(max_examples=200, deadline=None)
    def test_complete_multiplicativity(self, a, b, p):
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_minus_one_criterion(self):
        for p in primes_in(3, 200):
            assert (legendre(-1, p) == 1) == (p % 4 == 1)

    def test_reciprocity_for_three(self):
        # (3/p)(p/3) = (-1)^((p-1)/2) for odd primes p != 3
        for p in primes_in(5, 200):
            assert legendre(3, p) * legendre(p, 3) == (-1) ** ((p - 1) // 2)


class TestFermatQuotient:
    def test_pinned(self):
        assert fermat_quotient(3, 5) == (81 - 1) // 5 % 5 == 1

    def test_zero_when_a_is_one_mod_p_squared(self):
        for p in (5, 7, 11):
            assert fermat_quotient(1 + p * p, p) == 0

    def test_dual_route_agreement(self):
        for a in (2, 3, 5):
            for p in primes_in(2, 500):
                if a % p == 0:
                    continue
                exact = (a ** (p - 1) - 1) // p % p
                assert fermat_quotient(a, p) == exact

    def test_rejects_p_dividing_a(self):
        with pytest.raises(ValueError):
            fermat_quotient(10, 5)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            fermat_quotient(2, 9)
