"""Dense univariate polynomials over the integers: q-integers, q-binomials,
and the Schroder/Narayana polynomial families.

Coefficients are Python ints stored in ascending degree order with no
trailing zeros; the zero polynomial has degree ``None``.  Every polynomial
statement the claims check lives in Z[x] or Z[q], so division is exact
division in Z[x]: a leading coefficient that does not divide raises
``NotDivisible``.
"""
from __future__ import annotations

import math
import operator

from . import sequences


class DivisionByZeroPolynomial(ZeroDivisionError):
    pass


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, message: str, remainder: "Poly"):
        super().__init__(message)
        self.remainder = remainder


def _mul_coeffs(a, b) -> list:
    """Schoolbook product of two coefficient sequences."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fold(coeffs, n: int) -> list:
    """Coefficients of the residue mod q^n - 1 (length n): entry i sums the
    coefficients of every q^j with j = i (mod n)."""
    return [sum(coeffs[i::n]) for i in range(n)]


def _mul_cyclic(a, b, n: int) -> list:
    """Product of two residues mod q^n - 1, as a length-n residue."""
    return _fold(_mul_coeffs(a, b), n)


def _folded_q_binomial_rows(n: int, m_max: int):
    """Rows m = 0..m_max of the q-Pascal triangle mod q^n - 1: row m holds the
    length-n residues of [m k]_q for k = 0..min(m, n-1), as tuples.

    Built by [m k] = [m-1 k-1] + q^k [m-1 k]; on a length-n residue, q^k is
    a rotation by k, so no full-degree row is ever formed."""
    one = (1,) + (0,) * (n - 1)
    row = [one]
    yield row
    for m in range(1, m_max + 1):
        nxt = [one]
        for k in range(1, min(m, n - 1) + 1):
            if k < m:
                r = row[k]
                nxt.append(tuple(map(operator.add, row[k - 1], r[-k:] + r[:-k])))
            else:
                nxt.append(one)  # [m m] = 1
        row = nxt
        yield row


class Poly:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"Poly coefficients must be int, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs)) if other else ZERO
        if isinstance(other, Poly):
            return Poly(_mul_coeffs(self.coeffs, other.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("Poly power must be >= 0")
        result = ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero or k == 0:
            return self
        return Poly((0,) * k + self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def div_rem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division in Z[x]: self = q * other + r with deg r < deg other.

        Raises NotDivisible when a step needs a leading-coefficient division
        that is not exact; it carries self minus the quotient found so far
        times other.
        """
        if not isinstance(other, Poly):
            other = _coerce(other)
        if other is None or other.is_zero:
            raise DivisionByZeroPolynomial("polynomial division by zero")
        db = other.degree
        if self.degree is None or self.degree < db:
            return ZERO, self
        a = list(self.coeffs)
        lead = other.coeffs[-1]
        body = other.coeffs[:-1]
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if not c:
                continue
            if lead == 1:
                step = c
            elif lead == -1:
                step = -c
            elif c % lead == 0:
                step = c // lead
            else:
                raise NotDivisible(f"leading coefficient {lead} does not divide {c}",
                                   Poly(a))
            q[i - db] = step
            for j, y in enumerate(body):
                if y:
                    a[i - db + j] -= step * y
            a[i] = 0
        return Poly(q), Poly(a[:db])

    def __mod__(self, other):
        return self.div_rem(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Return q with self = other * q in Z[x], or raise NotDivisible."""
        q, r = self.div_rem(other)
        if not r.is_zero:
            raise NotDivisible(f"remainder {r.render()} is nonzero", r)
        return q

    def render(self, var: str = "x") -> str:
        """Canonical text form: 'c0 + c1*x + c2*x^2 + ...' with zero terms omitted."""
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = var if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.render()!r})"


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly((value,))
    return None


ZERO = Poly()
ONE = Poly((1,))


def q_integer(n: int) -> Poly:
    """q-analogue of n: 1 + q + ... + q^(n-1); zero polynomial for n = 0."""
    if n < 0:
        raise ValueError("q_integer: n must be >= 0")
    return Poly((1,) * n)


def _q_binomial_row(rows: list, m: int, _key) -> list[Poly]:
    """Row m of the q-Pascal triangle from row m - 1."""
    if m == 0:
        return [ONE]
    prev = rows[-1]
    row = [ONE]
    for j in range(1, m):
        a = prev[j].coeffs
        b = prev[j - 1].coeffs
        out = [0] * max(len(a) + j, len(b))
        for i, x in enumerate(b):
            out[i] = x
        for i, x in enumerate(a):
            out[i + j] += x
        row.append(Poly(out))
    row.append(ONE)
    return row


_Q_ROWS = sequences._PrefixCache(_q_binomial_row)


def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial [n k]_q built by the Pascal-style recursion
    [n k] = q^k [n-1 k] + [n-1 k-1]; zero for k > n, one for k = 0."""
    if n < 0 or k < 0:
        raise ValueError("q_binomial: need n >= 0 and k >= 0")
    if k > n:
        return ZERO
    return _Q_ROWS.at(n)[k]


def s_poly(n: int) -> Poly:
    """Narayana polynomial sum_{k=1..n} N(n, k) x^(k-1) (x+1)^(n-k)."""
    if n < 1:
        raise ValueError("s_poly: n must be >= 1")
    xp1 = [ONE]
    for _ in range(n - 1):
        xp1.append(xp1[-1] * Poly((1, 1)))
    acc = ZERO
    for k in range(1, n + 1):
        acc = acc + (xp1[n - k] * sequences.narayana(n, k)).shift(k - 1)
    return acc


def big_schroder_poly(n: int, h: int = 1) -> Poly:
    """Large Schroder polynomial family: coefficient of x^k is
    (C(n+k, 2k) * Catalan(k))^h."""
    if n < 0 or h < 1:
        raise ValueError("big_schroder_poly: need n >= 0 and h >= 1")
    cat = sequences.catalan_values(n)
    return Poly(tuple((math.comb(n + k, 2 * k) * cat[k]) ** h for k in range(n + 1)))


def w_poly(n: int, h: int = 1) -> Poly:
    """w-polynomial family: coefficient of x^(k-1) is w(n, k)^h."""
    if n < 1 or h < 1:
        raise ValueError("w_poly: need n >= 1 and h >= 1")
    return Poly(tuple(sequences.w_coeff(n, k) ** h for k in range(1, n + 1)))


# Testing hook: empties every cache of the package, these included.
_reset_caches = sequences._reset_caches
