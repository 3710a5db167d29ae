"""Exact scalar arithmetic: big rationals, dense univariate polynomials over Q,
and the rational-function field with Laurent expansion at a point and power
series at infinity.

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator).  Polynomials are dense coefficient tuples, low degree first.
Rational functions are kept normalized after every operation: numerator and
denominator coprime, denominator monic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import MalformedInput, PoleAtInfinity, PoleAtPoint, ZeroFunction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse the 'p/q' or 'p' text format used by the CLI and JSON reports."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"not a rational: {text!r}") from exc


class Poly:
    """Dense univariate polynomial over Fraction. Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((_ZERO, _ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly.const(-Fraction(other)))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly(tuple(c * q for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [_ZERO] * (dq + 1)
        inv_lc = 1 / other.lc()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lc
            quot[k] = c
            if c != 0:
                for j, oj in enumerate(other.coeffs):
                    rem[k + j] -= c * oj
        return Poly(quot), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.lc())

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, a: Fraction) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def shift(self, a: Fraction) -> "Poly":
        """Return p(x + a), via Horner in the shifted variable."""
        acc = Poly()
        xa = Poly((Fraction(a), _ONE))
        for c in reversed(self.coeffs):
            acc = acc * xa + Poly.const(c)
        return acc

    def compose_neg(self) -> "Poly":
        """Return p(-x)."""
        return Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _series_div(num: Sequence[Fraction], den: Sequence[Fraction], count: int) -> list[Fraction]:
    """Power-series division num/den to `count` terms; den[0] must be nonzero."""
    inv0 = 1 / den[0]
    out = []
    work = list(num[:count]) + [_ZERO] * max(0, count - len(num))
    for k in range(count):
        c = work[k] * inv0
        out.append(c)
        if c != 0:
            top = min(count, k + len(den))
            for j in range(k + 1, top):
                work[j] -= c * den[j - k]
    return out


class RatFunc:
    """Rational function num/den over Q, normalized (coprime, monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly.const(1), _normalized: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lc = den.lc()
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Poly.const(c), Poly.const(1), _normalized=True)

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x(), Poly.const(1), _normalized=True)

    @classmethod
    def coerce(cls, v) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (int, Fraction)):
            return cls.const(v)
        raise TypeError(f"cannot coerce {type(v)} to RatFunc")

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------
    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __add__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc.const(1) / self ** (-k)
        out = RatFunc.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- analytic operations --------------------------------------------
    def eval(self, a) -> Fraction:
        a = Fraction(a)
        d = self.den.eval(a)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at {a}")
        return self.num.eval(a) / d

    def subs_neg(self) -> "RatFunc":
        """Return f(-x)."""
        return RatFunc(self.num.compose_neg(), self.den.compose_neg())

    def laurent_at(self, a, count: int) -> tuple[int, list[Fraction]]:
        """Laurent expansion around x = a: minimal exponent and `count` coefficients."""
        if self.is_zero():
            raise ZeroFunction("the zero function has no Laurent order")
        if count < 1:
            raise ValueError("count must be positive")
        a = Fraction(a)
        ns = self.num.shift(a)
        ds = self.den.shift(a)
        vn, vd = ns.valuation(), ds.valuation()
        order = vn - vd
        coeffs = _series_div(ns.coeffs[vn:], ds.coeffs[vd:], count)
        return order, coeffs

    def series_at_infinity(self, K: int) -> list[Fraction]:
        """Coefficients of x^0, x^-1, ..., x^-K; requires regularity at infinity."""
        if K < 0:
            raise ValueError("K must be non-negative")
        if self.is_zero():
            return [_ZERO] * (K + 1)
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            raise PoleAtInfinity(f"degree {dn} numerator over degree {dd} denominator")
        # reverse coefficients: f(1/y) * y^dd / y^dd
        nrev = [_ZERO] * (dd - dn) + list(reversed(self.num.coeffs))
        drev = list(reversed(self.den.coeffs))
        return _series_div(nrev, drev, K + 1)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

