"""Dense univariate polynomials over the integers: q-integers, q-binomials,
and the Schroder/Narayana polynomial families.

Coefficients are Python ints stored in ascending degree order with no
trailing zeros; the zero polynomial has degree ``None``.  No claim's checker
divides polynomials: ``div_rem`` and ``exact_div`` serve the public ``Poly``
API, the tests' oracles and the benchmark's probe.  Division is in Z[x], so a
leading coefficient that does not divide raises ``NotDivisible``.
"""
from __future__ import annotations

import math

from . import sequences


class DivisionByZeroPolynomial(ZeroDivisionError):
    pass


class NotDivisible(ArithmeticError):
    """Exact polynomial division failed; carries the offending remainder."""

    def __init__(self, message: str, remainder: "Poly"):
        super().__init__(message, remainder)  # both arguments, so it pickles across the pool
        self.remainder = remainder

    def __str__(self) -> str:
        return self.args[0]


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


class _Packed:
    """Residues mod q^n - 1, each packed into one int by evaluation at q = 2^B:
    coefficient i sits in bits [iB, (i+1)B).

    For any B, q -> 2^B is a ring map from Z[q]/(q^n - 1) onto the integers
    mod M = 2^(nB) - 1 (Kronecker substitution with a cyclic wrap,
    Schoenhage 1982): q^k is a rotation by kB bits, a product is one int
    product plus one fold, and any sum or product may be reduced mod M.
    The caller gives a bound U on the absolute value of every coefficient
    it reads back, and B = U.bit_length() + 1 keeps each below 2^(B-1), so
    coeffs reads the residue back exactly from any int of its class.

    rotate takes an int below 2^(nB).  Residues with nonnegative
    coefficients whose value at q = 1 is at most U, sums and products
    included, stay there without a reduction: the digits of a product x*y
    are coefficients of the unfolded product, so each is at most U, and the
    fold (p & mask) + (p >> nB) adds two such digits, which stay below 2^B.
    So no digit carries and every such residue is below 2^(nB - 1)."""

    __slots__ = ("n", "width", "bits", "mask")

    def __init__(self, n: int, bound: int):
        self.n = n
        self.width = bound.bit_length() + 1
        self.bits = n * self.width
        self.mask = (1 << self.bits) - 1

    def q_integer(self, j: int) -> int:
        """[j]_q = 1 + q + ... + q^(j-1): every digit j // n, plus 1 in the first j % n."""
        ones = self.mask // ((1 << self.width) - 1)  # coefficient 1 at every q^i
        return j // self.n * ones + (ones & ((1 << j % self.n * self.width) - 1))

    def rotate(self, x: int, k: int) -> int:
        """q^k x."""
        s = k % self.n * self.width
        return ((x << s) & self.mask) | (x >> (self.bits - s))

    def mul(self, x: int, y: int) -> int:
        p = x * y
        return (p & self.mask) + (p >> self.bits)

    def pack(self, residue) -> int:
        """The packed int of the n coefficients of a residue: its value at q = 2^B."""
        return sum(c << (i * self.width) for i, c in enumerate(residue))

    def coeffs(self, x: int) -> list[int]:
        """The n coefficients, lowest degree first, of the residue that x stands
        for mod M, each below 2^(B-1) in absolute value.  With 2^(B-1) - 1
        added to each they lie in [0, 2^B - 1), so they are the digits of that
        sum's least residue mod M."""
        digit, shift = (1 << self.width) - 1, (1 << self.width - 1) - 1
        x = (x + self.mask // digit * shift) % self.mask
        return [((x >> (i * self.width)) & digit) - shift for i in range(self.n)]


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

    def __reduce__(self):
        return Poly, (self.coeffs,)

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
        if not exp:
            return ONE
        # left to right over the bits below the top one, so no product with ONE
        result = self
        for bit in bin(exp)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

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
    """Row m of the q-Pascal triangle from row m - 1: [m j] = [m-1 j-1] + q^j [m-1 j]."""
    if m == 0:
        return [ONE]
    prev = rows[m - 1]
    return [ONE, *(prev[j - 1] + Poly((0,) * j + prev[j].coeffs) for j in range(1, m)), ONE]


_Q_ROWS = sequences._PrefixCache(_q_binomial_row)


def q_binomial(n: int, k: int) -> Poly:
    """Gaussian binomial [n k]_q built by the Pascal-style recursion
    [n k] = q^k [n-1 k] + [n-1 k-1]; zero for k > n, one for k = 0."""
    if n < 0 or k < 0:
        raise ValueError("q_binomial: need n >= 0 and k >= 0")
    if k > n:
        return ZERO
    return _Q_ROWS.at(n)[k]


def _binomial_transform(row, sign: int) -> list[int]:
    """Coefficients of sum_j row[j] x^j (1 + sign*x)^(m-1-j), m = len(row): entry
    i is sum_j C(m-1-j, i-j) sign^(i-j) row[j].  Horner's rule: each step is
    a product by 1 + sign*x (Pascal's rule) and adds row[j] at x^j."""
    acc = []
    for j, r in enumerate(row):
        acc = [a + sign * b for a, b in zip(acc + [0], [0] + acc)]
        acc[j] += r
    return acc


def _expand_in_y(row) -> list[int]:
    """Coefficients in x of sum_k row[k] y^k with y = x(x+1).  Horner's rule
    from the top coefficient: each step multiplies by x + x^2 as one shift
    and one product by 1 + x (Pascal's rule), then adds row[k] at x^0."""
    acc = []
    for r in reversed(row):
        acc = [r] + [a + b for a, b in zip(acc + [0], [0] + acc)] if acc else [r]
    return acc


def s_poly(n: int) -> Poly:
    """Narayana polynomial sum_{k=1..n} N(n, k) x^(k-1) (x+1)^(n-k)."""
    if n < 1:
        raise ValueError("s_poly: n must be >= 1")
    return Poly(_binomial_transform([sequences.narayana(n, k) for k in range(1, n + 1)], 1))


def big_schroder_poly(n: int, h: int = 1) -> Poly:
    """Large Schroder polynomial family: coefficient of x^k is
    (C(n+k, 2k) * Catalan(k))^h."""
    if n < 0 or h < 1:
        raise ValueError("big_schroder_poly: need n >= 0 and h >= 1")
    return Poly(tuple((math.comb(n + k, 2 * k) * sequences.catalan(k)) ** h for k in range(n + 1)))


def w_poly(n: int, h: int = 1) -> Poly:
    """w-polynomial family: coefficient of x^(k-1) is w(n, k)^h."""
    if n < 1 or h < 1:
        raise ValueError("w_poly: need n >= 1 and h >= 1")
    return Poly(tuple(sequences.w_coeff(n, k) ** h for k in range(1, n + 1)))


# Testing hook: empties every cache of the package, these included.
_reset_caches = sequences._reset_caches
