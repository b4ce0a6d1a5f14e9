"""Polynomial arithmetic, q-objects, and the polynomial families."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import polynomials, sequences as seq
from motzkinlab.polynomials import (DivisionByZeroPolynomial, NotDivisible,
                                    Poly, ZERO, ONE, _binomial_transform, _expand_in_y,
                                    big_schroder_poly, q_binomial, q_integer, s_poly, w_poly)

Q = Poly((0, 1))

small_ints = st.integers(-50, 50)
coeff_lists = st.lists(small_ints, min_size=0, max_size=8)


def assert_product_by_evaluation(pa, pb, prod):
    """prod = pa * pb, checked without multiplying coefficient lists: the
    degree adds up, and the values agree at deg + 1 distinct integers, which
    determine a polynomial of that degree."""
    if pa.is_zero or pb.is_zero:
        assert prod.is_zero
        return
    assert prod.degree == pa.degree + pb.degree
    for x in range(-(prod.degree // 2), prod.degree - prod.degree // 2 + 1):
        assert prod(x) == pa(x) * pb(x)


class TestRingOps:
    def test_difference_of_squares(self):
        assert (Q + 1) * (Q - 1) == Poly((-1, 0, 1))

    def test_additive_identity(self):
        p = Poly((3, -2, 7))
        assert p + ZERO == p
        assert ZERO + p == p

    def test_cube_by_repeated_multiplication(self):
        p = Poly((1, 1))
        expected = p * p * p
        assert p ** 3 == expected == Poly((1, 3, 3, 1))

    @pytest.mark.parametrize("p", [Poly((1, 1)), Poly((2, -3, 0, 5)), Poly((7,)), ZERO])
    def test_power_is_the_repeated_product(self, p):
        expected = ONE
        for e in range(7):
            assert p ** e == expected, e
            expected = expected * p

    @pytest.mark.parametrize("exp, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_power_forms_no_product_with_one(self, monkeypatch, exp, products):
        # left-to-right binary powering from p: one squaring per bit below
        # the top one and one product per set bit among them
        calls = []
        mul = polynomials._mul_coeffs
        monkeypatch.setattr(polynomials, "_mul_coeffs", lambda a, b: calls.append(1) or mul(a, b))
        Poly((2, -3, 0, 5)) ** exp
        assert len(calls) == products

    def test_scalar_and_fraction_ops(self):
        p = Poly((1, 2))
        assert 3 * p == Poly((3, 6))
        assert p * 0 == ZERO
        with pytest.raises(TypeError):
            p * Fraction(1, 2)
        with pytest.raises(TypeError):
            p + Fraction(1, 2)

    def test_fraction_coefficients_are_rejected(self):
        with pytest.raises(TypeError):
            Poly((Fraction(1, 2),))
        with pytest.raises(TypeError):
            Poly((1, Fraction(4, 2)))

    def test_zero_degree_sentinel(self):
        assert ZERO.degree is None
        assert Poly((5,)).degree == 0
        with pytest.raises(TypeError):
            ZERO.degree + 1

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=150, deadline=None)
    def test_mul_commutes_and_matches_schoolbook(self, a, b):
        pa, pb = Poly(a), Poly(b)
        prod = pa * pb
        assert prod == pb * pa
        assert_product_by_evaluation(pa, pb, prod)

    @given(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=60, max_size=90),
           st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=60, max_size=90))
    @settings(max_examples=20, deadline=None)
    def test_long_products_with_large_signed_coefficients(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert_product_by_evaluation(pa, pb, pa * pb)

    @given(coeff_lists, coeff_lists, coeff_lists, st.integers(-9, 9))
    @settings(max_examples=150, deadline=None)
    def test_evaluation_homomorphism(self, a, b, c, x):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        assert (pa * pb + pc)(x) == pa(x) * pb(x) + pc(x)


class TestExactDivision:
    def test_simple_quotient(self):
        assert Poly((-1, 0, 1)).exact_div(Poly((-1, 1))) == Poly((1, 1))

    def test_cyclotomic_factorization_brute_force(self):
        q6 = Poly((-1, 0, 0, 0, 0, 0, 1))
        divisor = Poly((-1, 1)) * Poly((1, 1)) * Poly((1, 1, 1))
        assert q6.exact_div(divisor) == Poly((1, -1, 1))

    def test_not_divisible_carries_remainder(self):
        with pytest.raises(NotDivisible) as exc:
            Poly((1, 0, 1)).exact_div(Poly((-1, 1)))
        assert exc.value.remainder == Poly((2,))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPolynomial):
            Poly((1, 1)).exact_div(ZERO)

    def test_integer_divisibility_is_strict(self):
        # q^2 = (2q) * (q/2) only over the rationals
        with pytest.raises(NotDivisible):
            Poly((0, 0, 1)).exact_div(Poly((0, 2)))
        # long division stays in Z[x]: 2 does not divide the leading 3 of 3x^2 + 1
        with pytest.raises(NotDivisible):
            Poly((1, 0, 3)).div_rem(Poly((1, 2)))
        assert Poly((1, 0, 4)).div_rem(Poly((1, 2))) == (Poly((-1, 2)), Poly((2,)))

    @given(coeff_lists, st.lists(small_ints, min_size=0, max_size=4), st.sampled_from((1, -1)))
    @settings(max_examples=150, deadline=None)
    def test_div_rem_reconstructs(self, a, b, lead):
        pa, pb = Poly(a), Poly(b + [lead])
        q, r = pa.div_rem(pb)
        assert q * pb + r == pa
        assert r.is_zero or r.degree < pb.degree


class TestQObjects:
    def test_q_integer_small(self):
        assert q_integer(1) == ONE
        assert q_integer(3) == Poly((1, 1, 1))
        assert q_integer(0).is_zero

    def test_q_integer_at_one(self):
        for n in range(101):
            assert q_integer(n)(1) == n

    def test_q_binomial_4_2(self):
        assert q_binomial(4, 2) == Poly((1, 1, 2, 1, 1))

    @pytest.mark.parametrize("n", [0, 1, 5, 23])
    def test_q_binomial_k_zero(self, n):
        assert q_binomial(n, 0) == ONE

    def test_q_binomial_k_above_n(self):
        assert q_binomial(3, 5).is_zero

    def test_q_binomial_at_one_is_binomial(self):
        for n in range(41):
            for k in range(n + 1):
                assert q_binomial(n, k)(1) == math.comb(n, k)

    def test_q_binomial_nonnegative_and_symmetric(self):
        for n in range(31):
            for k in range(n + 1):
                cs = q_binomial(n, k).coeffs
                assert all(c >= 0 for c in cs)
                top = k * (n - k)
                assert len(cs) == top + 1 or (not cs and top == 0)
                for j in range(len(cs)):
                    assert cs[j] == cs[top - j]

    def test_q_binomial_product_formula(self):
        # [n k]_q * prod [j]_q = prod [n-j]_q
        for n in range(2, 12):
            for k in range(1, n + 1):
                lhs = q_binomial(n, k)
                for j in range(1, k + 1):
                    lhs = lhs * q_integer(j)
                rhs = ONE
                for j in range(k):
                    rhs = rhs * q_integer(n - j)
                assert lhs == rhs


class TestCyclotomic:
    """Reductions mod the d-th cyclotomic polynomial, which is [d]_q for
    prime d."""

    def test_q_lucas_reduction(self):
        # [ad+s, bd+t]_q = C(a,b) * [s t]_q  (mod [d]_q) for prime d
        for d in (2, 3, 5):
            phi = q_integer(d)
            for a in range(5):
                for b in range(5):
                    for s in range(d):
                        for t in range(d):
                            lhs = q_binomial(a * d + s, b * d + t)
                            rhs = math.comb(a, b) * q_binomial(s, t)
                            assert (lhs - rhs).div_rem(phi)[1].is_zero


class TestAgainstSympy:
    """Cross-checks against independent closed forms."""

    def test_q_binomial_integer_evaluations(self):
        # product formula prod_j [n-j]_q / prod_j [j]_q at integer q
        for n in range(12):
            for k in range(n + 1):
                for q0 in (2, 3, -2):
                    num = 1
                    den = 1
                    for j in range(k):
                        num *= (q0 ** (n - j) - 1) // (q0 - 1)
                        den *= (q0 ** (j + 1) - 1) // (q0 - 1)
                    assert q_binomial(n, k)(q0) * den == num


def _s_poly_by_powers(n: int) -> Poly:
    """s_n = sum_k N(n, k) x^(k-1) (x+1)^(n-k), expanded with Poly products."""
    xp1 = [ONE]
    for _ in range(n - 1):
        xp1.append(xp1[-1] * Poly((1, 1)))
    acc = ZERO
    for k in range(1, n + 1):
        acc = acc + xp1[n - k] * Poly((0,) * (k - 1) + (1,)) * seq.narayana(n, k)
    return acc


class TestFamilies:
    def test_s_poly_small(self):
        assert s_poly(1) == ONE
        assert s_poly(2) == Poly((1, 2))

    def test_s_poly_matches_power_expansion(self):
        for n in range(1, 61):
            assert s_poly(n) == _s_poly_by_powers(n), n

    @pytest.mark.parametrize("sign", [1, -1])
    def test_binomial_transform_matches_its_sum(self, sign):
        # entry i of sum_j row[j] x^j (1 + sign*x)^(m-1-j) is
        # sum_j C(m-1-j, i-j) sign^(i-j) row[j]; rows of every length to 24
        rng = random.Random(16 + sign)
        for m in range(25):
            row = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
            expected = [sum(math.comb(m - 1 - j, i - j) * sign ** (i - j) * row[j]
                            for j in range(i + 1)) for i in range(m)]
            assert _binomial_transform(row, sign) == expected, (m, row)

    def test_expand_in_y_matches_poly_horner(self):
        # sum_k row[k] y^k with y = x(x+1), by Poly products; rows of every length to 24
        rng = random.Random(17)
        y = Poly((0, 1, 1))
        for m in range(25):
            row = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(m)]
            expected = ZERO
            for r in reversed(row):
                expected = expected * y + r
            out = _expand_in_y(row)
            assert len(out) == max(2 * m - 1, 0) and Poly(out) == expected, (m, row)

    def test_s_poly_at_one_is_little_schroder(self):
        for n in range(1, 101):
            assert s_poly(n)(1) == seq.schroder_little(n)

    def test_big_schroder_small(self):
        assert big_schroder_poly(2, 1) == Poly((1, 3, 2))
        assert big_schroder_poly(0, 3) == ONE

    def test_big_schroder_factorization(self):
        for n in range(1, 101):
            assert big_schroder_poly(n, 1) == Poly((1, 1)) * s_poly(n)

    def test_big_schroder_higher_powers(self):
        for n in range(6):
            p1 = big_schroder_poly(n, 1)
            p3 = big_schroder_poly(n, 3)
            assert p3.coeffs == tuple(c ** 3 for c in p1.coeffs)

    def test_w_poly_small(self):
        assert w_poly(2, 1) == Poly((1, 2))
        assert w_poly(1, 7) == ONE

    def test_w_poly_equals_s_poly(self):
        for n in range(1, 61):
            assert w_poly(n, 1) == s_poly(n)

    def test_w_poly_higher_powers(self):
        for n in range(1, 8):
            p = w_poly(n, 2)
            assert p.coeffs == tuple(seq.w_coeff(n, k) ** 2 for k in range(1, n + 1))


class TestRenderParse:
    @pytest.mark.parametrize("coeffs,text", [
        ((), "0"),
        ((5,), "5"),
        ((-1, 2), "-1 + 2*x"),
        ((0, 1), "x"),
        ((1, 0, -1), "1 - x^2"),
        ((0, -1, 0, 3), "-x + 3*x^3"),
    ])
    def test_render_examples(self, coeffs, text):
        assert Poly(coeffs).render() == text

    def test_render_q_variable(self):
        assert q_integer(3).render("q") == "1 + q + q^2"
