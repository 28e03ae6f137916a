"""Scalar arithmetic: exact elements of the 8th cyclotomic field, plus a float-complex backend.

Exact values are `Cyc` instances with rational coefficients over the basis
(1, zeta, zeta^2, zeta^3), zeta = exp(i*pi/4).  This covers every constant the
core constructions need: rationals, i = zeta^2, sqrt2 = zeta - zeta^3, and the
entries of K1/K2.  Approximate values are plain Python complex numbers; mixed
arithmetic coerces exact -> approximate, never the reverse.
"""

from __future__ import annotations

import json
import math
import re as _re
from fractions import Fraction
from math import isqrt

Rat = Fraction

_HALF = Fraction(1, 2)


class ParseError(ValueError):
    pass


class Cyc:
    """Exact element c0 + c1*zeta + c2*zeta^2 + c3*zeta^3 of Q(zeta_8)."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)
        self.c2 = Fraction(c2)
        self.c3 = Fraction(c3)

    @property
    def coeffs(self):
        return (self.c0, self.c1, self.c2, self.c3)

    def is_rational(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def is_real(self) -> bool:
        # conj fixes a iff c2 = 0 and c1 = -c3
        return not self.c2 and self.c1 == -self.c3

    def __bool__(self) -> bool:
        return bool(self.c0 or self.c1 or self.c2 or self.c3)

    def __eq__(self, other):
        other = _coerce_exact(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Cyc(-self.c0, -self.c1, -self.c2, -self.c3)

    def __add__(self, other):
        if isinstance(other, Cyc):
            return Cyc(self.c0 + other.c0, self.c1 + other.c1,
                       self.c2 + other.c2, self.c3 + other.c3)
        if isinstance(other, (int, Fraction)):
            return Cyc(self.c0 + other, self.c1, self.c2, self.c3)
        if isinstance(other, (float, complex)):
            return self.to_complex() + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyc):
            a0, a1, a2, a3 = self.coeffs
            b0, b1, b2, b3 = other.coeffs
            if not (a1 or a2 or a3):  # rational fast path
                return Cyc(a0 * b0, a0 * b1, a0 * b2, a0 * b3)
            if not (b1 or b2 or b3):
                return Cyc(a0 * b0, a1 * b0, a2 * b0, a3 * b0)
            # zeta^4 = -1
            return Cyc(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                       a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                       a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                       a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)
        if isinstance(other, (int, Fraction)):
            return Cyc(self.c0 * other, self.c1 * other, self.c2 * other, self.c3 * other)
        if isinstance(other, (float, complex)):
            return self.to_complex() * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            return self * other.inv()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * Cyc(Fraction(1) / Fraction(other))
        if isinstance(other, (float, complex)):
            return self.to_complex() / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(other) * self.inv()
        if isinstance(other, (float, complex)):
            return other / self.to_complex()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Cyc":
        return Cyc(self.c0, -self.c3, -self.c2, -self.c1)

    def galois(self, k: int) -> "Cyc":
        """The automorphism zeta -> zeta^k, k in {1,3,5,7}."""
        a0, a1, a2, a3 = self.coeffs
        if k == 1:
            return self
        if k == 3:
            return Cyc(a0, a3, -a2, a1)
        if k == 5:
            return Cyc(a0, -a1, a2, -a3)
        if k == 7:
            return Cyc(a0, -a3, -a2, -a1)
        raise ValueError(f"not an automorphism index: {k}")

    def inv(self) -> "Cyc":
        if not self:
            raise ZeroDivisionError("division by zero scalar")
        if self.is_rational():
            return Cyc(1 / self.c0)
        cof = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * cof
        assert norm.is_rational() and norm.c0 != 0
        return Cyc(1 / norm.c0) * cof

    def to_complex(self) -> complex:
        s = math.sqrt(0.5)
        return complex(float(self.c0) + s * float(self.c1 - self.c3),
                       float(self.c2) + s * float(self.c1 + self.c3))

    __complex__ = to_complex

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        v = format_scalar(self)
        return v if isinstance(v, str) else f"Cyc({self.c0}, {self.c1}, {self.c2}, {self.c3})"


ZERO = Cyc(0)
ONE = Cyc(1)
I = Cyc(0, 0, 1, 0)
ZETA = Cyc(0, 1, 0, 0)
SQRT2 = Cyc(0, 1, 0, -1)
INV_SQRT2 = Cyc(0, _HALF, 0, -_HALF)


def _coerce_exact(x):
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(x)
    return None


def as_scalar(x):
    """Normalize a Python value to a scalar: Cyc (exact) or complex (approx)."""
    if isinstance(x, Cyc):
        return x
    if isinstance(x, bool):
        return Cyc(int(x))
    if isinstance(x, (int, Fraction)):
        return Cyc(x)
    if isinstance(x, (float, complex)):
        return complex(x)
    raise TypeError(f"not a scalar: {x!r}")


def is_exact(x) -> bool:
    return isinstance(x, Cyc)


def to_complex(x) -> complex:
    return x.to_complex() if isinstance(x, Cyc) else complex(x)


def conjugate(x):
    return x.conjugate()


def is_zero(x, tol: float = 0.0) -> bool:
    if isinstance(x, Cyc):
        return not x
    return abs(x) <= tol


def approx_eq(a, b, tol: float = 1e-9) -> bool:
    """Exact pairs compare exactly; anything else within per-component tol."""
    if isinstance(a, Cyc) and isinstance(b, Cyc):
        return a == b
    d = to_complex(a) - to_complex(b)
    return abs(d.real) <= tol and abs(d.imag) <= tol


def _frac_sqrt(q: Fraction):
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _qi_sqrt(a: Fraction, b: Fraction):
    """Square root of a + bi inside Q(i), or None.  Returns (re, im)."""
    if not a and not b:
        return (Fraction(0), Fraction(0))
    t = _frac_sqrt(a * a + b * b)
    if t is None:
        return None
    c2 = (a + t) * _HALF
    c = _frac_sqrt(c2)
    if c is None:
        return None
    if c:
        d = b / (2 * c)
    else:
        if b:
            return None
        d = _frac_sqrt(-a)
        if d is None:
            return None
    if c * c - d * d == a and 2 * c * d == b:
        return (c, d)
    return None


def _embed_qi(x: Fraction, y: Fraction, with_sqrt2: bool = False) -> Cyc:
    """(x + yi) or (x + yi)*sqrt2 as a Cyc."""
    if not with_sqrt2:
        return Cyc(x, 0, y, 0)
    # (x + yi)(zeta - zeta^3) = x*zeta - x*zeta^3 + y*zeta^3 + y*zeta
    return Cyc(0, x + y, 0, y - x)


def exact_sqrt(a: Cyc):
    """A Cyc square root of a, or None when a is not a square in Q(zeta_8)."""
    if not a:
        return ZERO
    # a = A + B*sqrt2 with A, B in Q(i)
    ax, ay = a.c0, a.c2
    bx, by = (a.c1 - a.c3) * _HALF, (a.c1 + a.c3) * _HALF
    candidates = []
    if not bx and not by:
        r = _qi_sqrt(ax, ay)
        if r is not None:
            candidates.append(_embed_qi(*r))
        r = _qi_sqrt(ax * _HALF, ay * _HALF)
        if r is not None:
            candidates.append(_embed_qi(*r, with_sqrt2=True))
    else:
        # x = C + D*sqrt2: C^2 + 2D^2 = A, 2CD = B
        sx = ax * ax - ay * ay - 2 * (bx * bx - by * by)
        sy = 2 * ax * ay - 4 * bx * by
        r = _qi_sqrt(sx, sy)
        if r is not None:
            for sgn in (1, -1):
                cx2 = (ax + sgn * r[0]) * _HALF
                cy2 = (ay + sgn * r[1]) * _HALF
                c = _qi_sqrt(cx2, cy2)
                if c is None or (not c[0] and not c[1]):
                    continue
                # D = B / (2C)
                den = 2 * (c[0] * c[0] + c[1] * c[1])
                dx = (bx * c[0] + by * c[1]) / den
                dy = (by * c[0] - bx * c[1]) / den
                candidates.append(_embed_qi(*c) + _embed_qi(dx, dy, with_sqrt2=True))
    for x in candidates:
        if x * x == a:
            for co in x.coeffs:
                if co:
                    return -x if co < 0 else x
            return x
    return None


def scalar_sqrt(x):
    """Exact square root when representable, else principal complex sqrt."""
    if isinstance(x, Cyc):
        r = exact_sqrt(x)
        if r is not None:
            return r
        x = x.to_complex()
    return complex(x) ** 0.5


_RAT = r"-?\d+(?:/\d+)?"
_RAT_RE = _re.compile(rf"^({_RAT})$")


def _finite(z: complex) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"scalar is not finite: {z!r}")
    return z


def parse_scalar(obj):
    """Parse a scalar literal: string grammar, bare number, or tagged object."""
    if isinstance(obj, bool):
        raise ParseError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return Cyc(obj)
    if isinstance(obj, (float, complex)):
        return _finite(complex(obj))
    if isinstance(obj, Fraction):
        return Cyc(obj)
    if isinstance(obj, Cyc):
        return obj
    if isinstance(obj, dict):
        if "zeta8" in obj:
            cs = obj["zeta8"]
            if not isinstance(cs, (list, tuple)) or len(cs) != 4:
                raise ParseError("zeta8 literal needs exactly four rational entries")
            return Cyc(*[Fraction(str(c)) for c in cs])
        if "re" in obj or "im" in obj:
            try:
                z = complex(float(obj.get("re", 0)), float(obj.get("im", 0)))
            except (TypeError, ValueError):
                raise ParseError(f"bad complex literal: {obj!r}") from None
            return _finite(z)
        raise ParseError(f"unknown scalar object: {obj!r}")
    if not isinstance(obj, str):
        raise ParseError(f"not a scalar: {obj!r}")
    text = obj.strip()
    if not text:
        raise ParseError("empty scalar literal")
    neg = False
    root = text
    if root.startswith("-"):
        neg, root = True, root[1:]
    if root == "sqrt2":
        return -SQRT2 if neg else SQRT2
    if root == "1/sqrt2":
        return -INV_SQRT2 if neg else INV_SQRT2
    m = _RAT_RE.match(text)
    if m:
        return Cyc(Fraction(text))
    # complex forms: a+bi, a-bi, bi, i, -i
    if text.endswith("i"):
        body = text[:-1].strip()
        if body in ("", "+"):
            return I
        if body == "-":
            return -I
        # split into real part and imaginary coefficient
        m = _re.match(rf"^({_RAT})\s*([+-])\s*(\d+(?:/\d+)?)?$", body)
        if m:
            a = Fraction(m.group(1))
            sign = -1 if m.group(2) == "-" else 1
            b = Fraction(m.group(3)) if m.group(3) else Fraction(1)
            return Cyc(a) + Cyc(sign * b) * I
        m = _RAT_RE.match(body)
        if m:
            return Cyc(Fraction(body)) * I
    raise ParseError(f"cannot parse scalar literal: {obj!r}")


def _fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x):
    """Inverse of parse_scalar, JSON-ready (string or object)."""
    if isinstance(x, Cyc):
        if x.is_rational():
            return _fmt_rat(x.c0)
        if not x.c1 and not x.c3:  # a + bi
            a, b = x.c0, x.c2
            bi = "i" if b == 1 else ("-i" if b == -1 else _fmt_rat(b) + "i")
            if not a:
                return bi
            return f"{_fmt_rat(a)}{'+' if b > 0 else ''}{bi}"
        if x == SQRT2:
            return "sqrt2"
        if x == -SQRT2:
            return "-sqrt2"
        if x == INV_SQRT2:
            return "1/sqrt2"
        if x == -INV_SQRT2:
            return "-1/sqrt2"
        return {"zeta8": [_fmt_rat(c) for c in x.coeffs]}
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def scalar_to_json_text(x) -> str:
    v = format_scalar(x)
    return v if isinstance(v, str) else json.dumps(v)
