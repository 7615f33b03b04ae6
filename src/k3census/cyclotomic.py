"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A CycNum is stored as integer numerators on the power basis
1, z, ..., z^(phi(n)-1) of Q(zeta_n) over one positive common denominator,
reduced modulo the n-th cyclotomic polynomial and divided through by the gcd
of all of them.  The representation is canonical for a fixed conductor, so
equality of values at a common conductor is equality of numerators and
denominator.  Mixed conductors promote to the lcm.

Products are integer convolutions: exponents fold mod n (z^n = 1), and the
powers z^k with phi(n) <= k < n are rewritten from a per-conductor integer
table built on first use.  The generic inverse is the product of the other
Galois conjugates divided by the norm, so no arithmetic ever leaves Z until
the rational coefficients are read.

All trigonometric quantities at angles k*pi/p (cotangent, cosecant, cosine)
are expressed inside these fields, e.g.

    cot(a*pi/p) = -i (1 + z^a) / (1 - z^a),   z = zeta_p,

so products like cot*cot, csc^2 and csc*cot are exact field elements with
no floating point anywhere.  Their only divisions are by factors 1 - z^c,
and those need no inverse: if z^c has order m > 1 then

    1 / (1 - z^c) = -(1/m) sum_{k<m} k z^(ck),

because (1 - w) sum_k k w^k = sum_{k=1}^{m-1} w^k - (m-1) w^m = -m for a
primitive m-th root of unity w.  inv_one_minus_zeta memoizes this closed
form per (n, c) and certifies each entry once by multiplying back, by
1 - z^c as a shift of exponents; the cot*cot, csc^2 and csc*cot elements,
the Dirac character's point terms (gindex) and the cot ratio of lemma 6.4
(cli) all divide through it, and 1 / (1 + z^b) is written
(1 - z^b) / (1 - z^(2b)).  None of them calls the generic inverse,
CycNum.inverse, which stays as the reference the tests check them against.

Decimal embeddings exist only for display and for comparison against
published 5-decimal tables; they too run on integers, as fixed-point
enclosures with counted error bounds, and a digit is printed only when the
whole enclosure rounds to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import CheckFailure

QPoly = tuple[Fraction, ...]  # dense, low degree first
IntPoly = tuple[int, ...]     # dense, low degree first


# ---------------------------------------------------------------------------
# integer polynomials


def poly_mul(a, b) -> list[int]:
    """Product of two dense integer polynomials, low degree first."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pdiv_monic(a, b) -> list[int]:
    """Exact quotient a / b of integer polynomials, b monic."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        f = a[k + len(b) - 1]
        q[k] = f
        if f:
            for i, y in enumerate(b):
                a[k + i] -= f * y
    if any(a):
        raise CheckFailure("polynomial division not exact")
    return q


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


@lru_cache(maxsize=None)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m, out = n, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """Phi_n as Mobius product of (x^d - 1)^{mu(n/d)} over divisors d of n."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _mobius(n // d)
        if mu == 0:
            continue
        factor = [-1] + [0] * (d - 1) + [1]  # x^d - 1
        if mu == 1:
            num = poly_mul(num, factor)
        else:
            den = poly_mul(den, factor)
    q = _pdiv_monic(num, den)
    if len(q) - 1 != euler_phi(n) or q[-1] != 1:
        raise CheckFailure("Phi_%d has degree %d, not phi(%d)" % (n, len(q) - 1, n))
    return tuple(q)


@lru_cache(maxsize=None)
def _fold_table(n: int) -> tuple[IntPoly, ...]:
    """Row k - phi(n) holds z^k mod Phi_n for phi(n) <= k < n, as integer
    coefficients on 1, z, ..., z^(phi(n)-1)."""
    phi_n = cyclotomic_polynomial(n)
    row = [-c for c in phi_n[:-1]]  # z^phi = -(lower terms of Phi_n)
    rows = []
    for _ in range(len(row), n):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]  # times z, then rewrite the z^phi term
        if top:
            row = [x - top * c for x, c in zip(row, phi_n)]
    return tuple(rows)


def _fold(n: int, vals) -> list[int]:
    """Canonical numerators of sum vals[k] z^k in Q(zeta_n), any length."""
    phi = euler_phi(n)
    out = list(vals[:phi])
    out += [0] * (phi - len(out))
    if len(vals) > phi:
        table = _fold_table(n)
        for k in range(phi, len(vals)):
            c = vals[k]
            if c:
                k %= n
                if k < phi:
                    out[k] += c
                else:
                    for i, t in enumerate(table[k - phi]):
                        out[i] += c * t
    return out


class CycNum:
    """Element of Q(zeta_n) on the reduced power basis.  Immutable."""

    __slots__ = ("n", "_num", "_den")

    def __init__(self, n: int, coeffs):
        if n < 1:
            raise ValueError("conductor must be positive")
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = _fold(n, [c.numerator * (den // c.denominator) for c in coeffs])
        self._set(n, num, den)

    def _set(self, n: int, num, den: int):
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, n: int, num, den: int) -> "CycNum":
        """Build from canonical-length integer numerators over den > 0."""
        out = object.__new__(cls)
        out._set(n, num, den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    @property
    def coeffs(self) -> QPoly:
        """Rational coefficients on 1, z, ..., z^(phi(n)-1)."""
        return tuple(Fraction(x, self._den) for x in self._num)

    # -- construction -------------------------------------------------

    @classmethod
    def rational(cls, x) -> "CycNum":
        x = Fraction(x)
        return cls._make(1, (x.numerator,), x.denominator)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CycNum":
        if n < 1:
            raise ValueError("conductor must be positive")
        k %= n
        return cls._make(n, _fold(n, [0] * k + [1]), 1)

    # -- conductor handling -------------------------------------------

    def promoted(self, m: int) -> "CycNum":
        """The same value viewed in Q(zeta_m), n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("can only promote to a multiple of the conductor")
        step = m // self.n
        out = [0] * ((len(self._num) - 1) * step + 1)
        for i, c in enumerate(self._num):
            out[i * step] = c
        return CycNum._make(m, _fold(m, out), self._den)

    @staticmethod
    def _common(a: "CycNum", b: "CycNum"):
        if a.n == b.n:
            return a, b
        m = a.n * b.n // gcd(a.n, b.n)
        return a.promoted(m), b.promoted(m)

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.rational(x)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        da, db = a._den, b._den
        return CycNum._make(a.n, [x * db + y * da for x, y in zip(a._num, b._num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._make(self.n, [-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return CycNum._make(a.n, _fold(a.n, poly_mul(a._num, b._num)), a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """The product of the other Galois conjugates, over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.n
        others = CycNum.rational(1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = others * self.galois(k)
        norm = (self * others).as_rational()
        if norm is None:
            raise CheckFailure("norm of %r is not rational" % (self,))
        others = others.promoted(n)
        sign = -1 if norm < 0 else 1
        return CycNum._make(n, [sign * norm.denominator * x for x in others._num],
                            abs(norm.numerator) * others._den)

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(self, other)
        return a._den == b._den and a._num == b._num

    def is_zero(self) -> bool:
        return not any(self._num)

    def galois(self, k: int) -> "CycNum":
        """The conjugate under zeta -> zeta^k, gcd(k, n) = 1."""
        n = self.n
        if gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        out = [0] * n
        for i, c in enumerate(self._num):
            out[(i * k) % n] = c  # i -> i*k mod n is injective
        return CycNum._make(n, _fold(n, out), self._den)

    def conjugate(self) -> "CycNum":
        return self.galois(-1 % self.n) if self.n > 1 else self

    def as_rational(self) -> Fraction | None:
        """The rational value, or None if the element is irrational."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mon = "z%d" % self.n if i == 1 else "z%d^%d" % (self.n, i)
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append("-" + mon)
                else:
                    terms.append("%s*%s" % (c, mon))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def cyc_make(n: int, k: int) -> CycNum:
    """zeta_n^k in canonical form.  cyc_make(n, 0) is 1."""
    return CycNum.zeta(n, k)


def _closed_form_inverse(n: int, c: int) -> CycNum:
    """-(1/m) sum_{k<m} k z^(ck) in Q(zeta_n), m > 1 the order of z^c."""
    m = n // gcd(n, c)
    vals = [0] * n
    for k in range(1, m):
        vals[c * k % n] = -k
    return CycNum._make(n, _fold(n, vals), m)


@lru_cache(maxsize=None)
def inv_one_minus_zeta(n: int, c: int) -> CycNum:
    """1 / (1 - z^c) in Q(zeta_n) by the closed form u; CheckFailure unless
    (1 - z^c) u = u - z^c u is 1.  z^c u is u's numerators moved up by c
    exponents and folded, so no product is formed."""
    if c % n == 0:
        raise ZeroDivisionError("1 - z^%d vanishes in Q(zeta_%d)" % (c, n))
    out = _closed_form_inverse(n, c)
    moved = _fold(n, [0] * (c % n) + list(out._num))
    if [x - y for x, y in zip(out._num, moved)] != [out._den] + [0] * (len(moved) - 1):
        raise CheckFailure("closed-form inverse of 1 - z^%d in Q(zeta_%d) is wrong" % (c, n))
    return out


@lru_cache(maxsize=None)
def _cot_unit(p: int, a: int) -> CycNum:
    """(1 + z^a) / (1 - z^a) = 2 / (1 - z^a) - 1, which is i cot(a*pi/p)."""
    return 2 * inv_one_minus_zeta(p, a) - 1


@lru_cache(maxsize=None)
def cot_product(p: int, a: int, b: int) -> CycNum:
    """-cot(a*pi/p) * cot(b*pi/p) as (1+z^a)(1+z^b) / ((1-z^a)(1-z^b))."""
    a %= p
    b %= p
    if a == 0 or b == 0:
        raise ValueError("cotangent pole: residue 0 mod %d" % p)
    return _cot_unit(p, a) * _cot_unit(p, b)


@lru_cache(maxsize=None)
def csc_squared(p: int, c: int) -> CycNum:
    """csc(c*pi/p)^2 = 4 / ((1-z^c)(1-z^-c))."""
    c %= p
    if c == 0:
        raise ValueError("cosecant pole: residue 0 mod %d" % p)
    return inv_one_minus_zeta(p, c) * inv_one_minus_zeta(p, p - c) * 4


def cos_angle(p: int, c: int) -> CycNum:
    """cos(c*pi/p).  For odd p this lands in Q(zeta_p) directly, using
    zeta_{2p} = -zeta_p^{(p+1)/2}; otherwise conductor 2p is used."""
    if p % 2:
        h = (c * (p + 1) // 2) % p
        return (CycNum.zeta(p, h) + CycNum.zeta(p, -h)) * Fraction((-1) ** (c % 2), 2)
    return (CycNum.zeta(2 * p, c) + CycNum.zeta(2 * p, -c)) * Fraction(1, 2)


@lru_cache(maxsize=None)
def csc_cot(p: int, c: int) -> CycNum:
    """csc(c*pi/p) * cot(c*pi/p) = cos(c*pi/p) / sin(c*pi/p)^2."""
    c %= p
    if c == 0:
        raise ValueError("pole: residue 0 mod %d" % p)
    return cos_angle(p, c) * csc_squared(p, c)


# ---------------------------------------------------------------------------
# certified decimal embedding
#
# An integer v at precision g stands for v / 2^g.  Every fixed-point value
# below carries a bound on its error in units of 2^-g (ulps), counted
# through each truncation, so a value of x at zeta = exp(2 pi i / n) is an
# enclosure rather than an estimate.  A decimal is printed only when the
# whole enclosure rounds to it.


def _fx_mul(a: int, ea: int, b: int, eb: int, g: int) -> tuple[int, int]:
    """Fixed-point product of a and b, off by at most ea and eb ulps, and
    its error bound: |A B - a b| <= |a| eb + |b| ea + 3 ea eb for the true
    A, B, plus one ulp each for the ceiling and the truncating shift."""
    return (a * b) >> g, ((abs(a) * eb + abs(b) * ea + 3 * ea * eb) >> g) + 2


def _atan_inv(x: int, g: int) -> tuple[int, int]:
    """atan(1/x) 2^g for an integer x >= 2, with its error in ulps.  The
    powers 2^g / x^(2j+1) are truncated divisions, each off by less than
    4/3 (the carried error shrinks by x^2 per step); so each term, one more
    division, is off by less than 2, and the alternating tail after the
    first vanished power is below 2 as well."""
    power, x2 = (1 << g) // x, x * x
    total, err, j = 0, 2, 0
    while power:
        term = power // (2 * j + 1)
        total += -term if j & 1 else term
        err += 2
        power //= x2
        j += 1
    return total, err


@lru_cache(maxsize=None)
def _pi_fixed(g: int) -> tuple[int, int]:
    """pi 2^g and its error in ulps, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239)."""
    a, ea = _atan_inv(5, g)
    b, eb = _atan_inv(239, g)
    return 16 * a - 4 * b, 16 * ea + 4 * eb


def _cos_sin(a: int, ea: int, g: int) -> tuple[int, int, int, int]:
    """(cos, its error, sin, its error) of the angle a / 2^g, 0 <= a / 2^g
    <= pi, off by at most ea ulps, by the Taylor series.  Term j + 1 is
    term j times a^2 / (m (m + 1)); the series stops at the first term that
    truncates to 0, whose true value is within its error bound, and the
    alternating tail after it is no larger (the ratios are below 1 from
    there on, as m >= 3 and a^2 <= pi^2)."""
    a2, ea2 = _fx_mul(a, ea, a, ea, g)
    out = []
    for m, term, et in ((1, 1 << g, 0), (2, a, ea)):
        total, err, sign = term, et, 1
        while term:
            term, et = _fx_mul(term, et, a2, ea2, g)
            q = m * (m + 1)
            term, et = term // q, et // q + 2
            sign = -sign
            total += sign * term
            err += et
            m += 2
        out += (total, err + et)
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_circle(n: int, g: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """cos(2 pi k / n) and sin(2 pi k / n) for 0 <= k < phi(n) at precision
    g, with one error bound in ulps per k.  The angle is brought into
    [0, pi] by k -> n - k (cos even, sin odd); k = 0 is exact."""
    pi, epi = _pi_fixed(g)
    cos, sin, err = [1 << g], [0], [0]
    for k in range(1, euler_phi(n)):
        j = min(k, n - k)
        c, ec, s, es = _cos_sin(2 * j * pi // n, 2 * j * epi // n + 2, g)
        cos.append(c)
        sin.append(s if j == k else -s)
        err.append(max(ec, es))
    return tuple(cos), tuple(sin), tuple(err)


def _enclose(x: CycNum, g: int) -> tuple[int, int, int]:
    """Integers (re, im, err): the real and imaginary parts of x at
    zeta = exp(2 pi i / n) lie within err / d of re / d and im / d, where
    d = den 2^g.  The error is sum |c_k| e_k over the numerators c_k."""
    cos, sin, err = _unit_circle(x.n, g)
    num = x._num
    return (sum(map(mul, num, cos)), sum(map(mul, num, sin)),
            sum(map(mul, map(abs, num), err)))


def _rational_part(x: CycNum, part: int) -> Fraction | None:
    """Re x = (x + conj x) / 2 (part 0) or Im x = -i (x - conj x) / 2
    (part 1) when it is rational, else None."""
    y = x.conjugate()
    if part:
        return ((x - y) * CycNum.zeta(4, 3) * Fraction(1, 2)).as_rational()
    return ((x + y) * Fraction(1, 2)).as_rational()


def _settle(x: CycNum, decide_re, decide_im) -> list:
    """The answers of decide_re on the real part of x and of decide_im on
    its imaginary part.  Each decide(s, e, d) is called on finer and finer
    enclosures of its part, which lies within e / d of s / d, until it
    answers; one enclosure per precision serves both parts.  After the
    first miss a rational part is passed exactly (e = 0), on which decide
    always answers, so an exact tie never keeps the loop going; an
    irrational part is never at a tie or on a rational bound, and the
    precision doubles until it is settled."""
    deciders, out, g = (decide_re, decide_im), [None, None], 64
    while True:
        re, im, err = _enclose(x, g)
        d = x._den << g
        for part, s in enumerate((re, im)):
            if out[part] is None:
                out[part] = deciders[part](s, err, d)
        if g == 64:
            for part in (0, 1):
                q = None if out[part] is not None else _rational_part(x, part)
                if q is not None:
                    out[part] = deciders[part](q.numerator, 0, q.denominator)
        if None not in out:
            return out
        g *= 2


def _nearest(s: int, e: int, d: int, scale: int) -> int | None:
    """The integer nearest to v scale, the same for every v within e / d of
    s / d, or None if they do not agree or one is a tie.  Exact values
    (e = 0) round half to even."""
    if not e:
        return round(Fraction(s * scale, d))
    lo, hi, d2 = 2 * (s - e) * scale + d, 2 * (s + e) * scale + d, 2 * d
    r = lo // d2
    return r if lo % d2 and r == hi // d2 else None


def _imag_shown(s: int, e: int, d: int, scale: int) -> tuple[bool, int] | None:
    """(False, 0) when |v| <= 1/scale for every v within e / d of s / d,
    (True, nearest integer to v scale) when |v| > 1/scale for all of them,
    None when the enclosure does not settle which."""
    lo, hi = (s - e) * scale, (s + e) * scale
    if -d <= lo and hi <= d:
        return False, 0
    if lo > d or hi < -d:
        r = _nearest(s, e, d, scale)
        return None if r is None else (True, r)
    return None


def embed_real(x: CycNum, digits: int = 15) -> tuple[Fraction, Fraction]:
    """Evaluate at zeta = exp(2*pi*i/n); returns (real, imag) as Fractions,
    each within 10^-digits of the true value."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10**digits

    def close(s, e, d):
        return Fraction(s, d) if e * scale <= d else None

    return tuple(_settle(x, close, close))


def embed_str(x: CycNum, digits: int = 5) -> str:
    """Fixed-decimal rendering of the value at zeta = exp(2*pi*i/n),
    rounded half to even; an imaginary part of absolute value above
    10^-digits is flagged rather than hidden."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10**digits
    re, (shown, im) = _settle(x, lambda s, e, d: _nearest(s, e, d, scale),
                              lambda s, e, d: _imag_shown(s, e, d, scale))
    if shown:
        return "%s + %si" % (_decimal(re, digits), _decimal(im, digits))
    return _decimal(re, digits)


def _decimal(r: int, digits: int) -> str:
    """r / 10^digits written out with exactly `digits` decimals."""
    sign = "-" if r < 0 else ""
    r = abs(r)
    return "%s%d.%0*d" % (sign, r // 10**digits, digits, r % 10**digits)


def minimal_polynomial(x: CycNum) -> QPoly:
    """Monic minimal polynomial of x over Q, low degree first.

    Found as the first monic relation among the powers 1, x, x^2, ...;
    equivalently the deflated characteristic polynomial of multiplication
    by x on the power basis.
    """
    from . import linalg

    powers = [CycNum.rational(1).promoted(x.n)]
    while True:
        k = len(powers)
        target = powers[-1] * x
        # columns are the coefficient vectors of 1, x, ..., x^(k-1)
        cols = [p.coeffs for p in powers]
        a = [[cols[j][i] for j in range(k)] for i in range(len(target.coeffs))]
        sol = linalg.solve(a, list(target.coeffs))
        if sol is not None:
            return tuple([-c for c in sol] + [Fraction(1)])
        powers.append(target)


def poly_str(poly: QPoly, var: str = "t") -> str:
    """Readable rendering, high degree first, e.g. 't^2 - 4*t - 1'."""
    terms = []
    for i in range(len(poly) - 1, -1, -1):
        c = poly[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mon = var if i == 1 else "%s^%d" % (var, i)
            body = mon if abs(c) == 1 else "%s*%s" % (abs(c), mon)
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"
