"""Plain Fraction reference versions of the cyclotomic kernels, kept here
and nowhere in the package.  Each pins an integer kernel (CycNum
construction, products, inverses and conjugates) to the rational polynomial
route it replaces.  The closed-form 1 / (1 - z^c) is pinned by its
reference product with 1 - z^c, and the cot, csc and Dirac point-term
elements built on it to the `/` route they replaced, whose CycNum.inverse
is pinned to the Fraction extended Euclid."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from k3census import cli, cyclotomic as cy, gindex
from k3census.cyclotomic import CycNum

CONDUCTORS = (1, 3, 4, 5, 7, 8, 10, 12, 14, 15)
ORACLE = settings(derandomize=True, max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# reference field arithmetic: Fraction polynomials reduced mod Phi_n


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    a, b = _ptrim([Fraction(x) for x in a]), _ptrim([Fraction(x) for x in b])
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    b_terms = [(i, y) for i, y in enumerate(b) if y]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, y in b_terms:
            a[k + i] -= f * y
        a = _ptrim(a)
    return _ptrim(q), a


@lru_cache(maxsize=None)
def ref_phi(n):
    """Phi_n as (x^n - 1) over the product of Phi_d for the proper divisors d."""
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num, r = _pdivmod(num, ref_phi(d))
            assert not r
    return tuple(num)


def ref_reduce(coeffs, n):
    """coeffs mod Phi_n.  Phi_n divides x^n - 1, so the exponents are first
    folded mod n, which leaves the remainder as it is."""
    folded = [Fraction(0)] * n
    for k, c in enumerate(coeffs):
        folded[k % n] += c
    _, r = _pdivmod(folded, ref_phi(n))
    return tuple(r + [Fraction(0)] * (len(ref_phi(n)) - 1 - len(r)))


def ref_mul(a, b, n):
    return ref_reduce(_pmul(list(a), list(b)), n)


def ref_inverse(a, n):
    """Extended Euclid in Q[x], keeping r_k = s_k * a mod Phi_n."""
    r0, s0 = ref_phi(n), [Fraction(0)]
    r1, s1 = _ptrim(list(a)), [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        qs = _pmul(q, s1)
        width = max(len(s0), len(qs))
        s0, s1 = s1, _ptrim([(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                             for i in range(width)])
    assert len(r0) == 1
    return ref_reduce([x / r0[0] for x in s0], n)


def ref_galois(a, k, n):
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[(i * k) % n] += c
    return ref_reduce(out, n)


def ref_promote(a, n, m):
    out = [Fraction(0)] * m
    for i, c in enumerate(a):
        out[i * (m // n)] += c
    return ref_reduce(out, m)


def ref_zeta(n, k):
    mono = [Fraction(0)] * (k % n) + [Fraction(1)]
    return ref_reduce(mono, n)


# ---------------------------------------------------------------------------
# products, inverses, conjugates and promotion against the reference


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def elements(draw, conductors=CONDUCTORS):
    """(n, coefficient list); lists run up to 2n entries, past phi(n), so
    that the constructor's reduction is exercised too."""
    n = draw(st.sampled_from(conductors))
    length = draw(st.integers(0, 2 * n))
    return n, draw(st.lists(rationals, min_size=length, max_size=length))


@ORACLE
@given(elements())
def test_construction_reduces_like_reference(elt):
    """Construction reduces like ref_reduce, the stored form is canonical
    (the same repr, lowest terms over a positive denominator), and the
    inverse is the Fraction extended Euclid's; zero has none."""
    n, c = elt
    x = CycNum(n, c)
    assert x.coeffs == ref_reduce(c, n)
    y = CycNum(n, x.coeffs)
    assert x == y and repr(x) == repr(y)
    num, den = x._num, x._den
    assert den > 0 and gcd(den, *num) == 1
    assert (y._num, y._den) == (num, den)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x.inverse().coeffs == ref_inverse(x.coeffs, n)
    assert x * x.inverse() == 1


@ORACLE
@given(st.data())
def test_products_match_reference(data):
    n, a = data.draw(elements())
    b = data.draw(st.lists(rationals, min_size=cy.euler_phi(n), max_size=cy.euler_phi(n)))
    x, y = CycNum(n, a), CycNum(n, b)
    want = ref_mul(ref_reduce(a, n), b, n)
    assert (x * y).coeffs == want
    assert (y * x).coeffs == want


@ORACLE
@given(st.data())
def test_galois_matches_reference(data):
    n, c = data.draw(elements())
    k = data.draw(st.sampled_from([k for k in range(1, 2 * n + 1) if gcd(k, n) == 1]))
    x = CycNum(n, c)
    assert x.galois(k).coeffs == ref_galois(x.coeffs, k, n)


PROMOTIONS = [(n, m) for n in CONDUCTORS for m in CONDUCTORS if m % n == 0 and m != n]


@ORACLE
@given(st.data())
def test_promotion_and_mixed_conductors_match_reference(data):
    n, m = data.draw(st.sampled_from(PROMOTIONS))
    _, a = data.draw(elements(conductors=(n,)))
    _, b = data.draw(elements(conductors=(m,)))
    x, y = CycNum(n, a), CycNum(m, b)
    up = ref_promote(x.coeffs, n, m)
    assert x.promoted(m).coeffs == up
    assert (x + y).coeffs == tuple(u + v for u, v in zip(up, y.coeffs))
    assert (x * y).coeffs == ref_mul(up, y.coeffs, m)
    assert x.promoted(m) == x


# ---------------------------------------------------------------------------
# the closed-form 1 / (1 - z^c) against the generic inverse, and the
# trigonometric elements against the division route they replaced
#
# These checks use pytest.fail, not the assert statement.

DIVISION_PRIMES = (3, 5, 7, 11, 13)


def test_closed_form_inverse_matches_generic_inverse():
    """The closed form u times 1 - z^c is 1 under the Fraction reference
    product, for every n <= 60 and c: an inverse in a field is unique, so
    this pins u to what the generic inverse would give."""
    for n in range(1, 61):
        one = ref_reduce([Fraction(1)], n)
        for c in range(1, n):
            u = cy.inv_one_minus_zeta(n, c)
            if ref_mul(u.coeffs, [1] + [0] * (c - 1) + [-1], n) != one:
                pytest.fail("1 / (1 - z^%d) in Q(zeta_%d): closed form %r is no inverse"
                            % (c, n, u))
        for c in (0, n, -n):
            with pytest.raises(ZeroDivisionError):
                cy.inv_one_minus_zeta(n, c)


def division_route(p):
    """The cot, csc and point-term elements as quotients through the
    generic inverse, CycNum.inverse."""
    one = CycNum.rational(1)

    def z(k):
        return CycNum.zeta(p, k)

    def cot_product(a, b):
        return (one + z(a)) * (one + z(b)) * ((one - z(a)) * (one - z(b))).inverse()

    def csc_squared(c):
        return CycNum.rational(4) * ((one - z(c)) * (one - z(-c))).inverse()

    def point_term(a, b):
        r = next(r for r in range(p) if (2 * r + a + b) % p == 0)
        return z(r) * ((one - z(-a)) * (one - z(-b))).inverse()

    def cot_ratio(a, b):
        return (one + z(a)) * (one - z(b)) * ((one - z(a)) * (one + z(b))).inverse()

    return cot_product, csc_squared, point_term, cot_ratio


def test_trig_elements_match_division_route():
    """cot_product, _point_term, _cot_ratio, csc_squared and csc_cot against
    quotients through CycNum.inverse, for p up to 13; cot_product is
    memoized."""
    for p in DIVISION_PRIMES:
        cot_product, csc_squared, point_term, cot_ratio = division_route(p)
        for a in range(1, p):
            for b in range(1, p):
                if cy.cot_product(p, a + p, b - p) is not cy.cot_product(p, a + p, b - p):
                    pytest.fail("cot_product(%d, %d, %d) is not memoized" % (p, a + p, b - p))
                checks = ((cy.cot_product(p, a, b), cot_product(a, b), "cot_product"),
                          (gindex._point_term(p, a, b), point_term(a, b), "_point_term"),
                          (cli._cot_ratio(p, a, b), cot_ratio(a, b), "_cot_ratio"))
                for got, want, name in checks:
                    if got != want or got.n != want.n:
                        pytest.fail("%s(%d, %d, %d) = %r, division route %r"
                                    % (name, p, a, b, got, want))
            if cy.csc_squared(p, a) != csc_squared(a):
                pytest.fail("csc_squared(%d, %d) differs from the division route" % (p, a))
            if cy.csc_cot(p, a) != cy.cos_angle(p, a) * csc_squared(a):
                pytest.fail("csc_cot(%d, %d) differs from the division route" % (p, a))


def test_fold_table_rows_are_reduced_powers():
    for n in CONDUCTORS:
        phi = cy.euler_phi(n)
        assert tuple(Fraction(c) for c in cy.cyclotomic_polynomial(n)) == tuple(ref_phi(n))
        for k, row in enumerate(cy._fold_table(n), start=phi):
            assert tuple(Fraction(x) for x in row) == ref_zeta(n, k)


def test_minimal_polynomials_match_sympy():
    t = sympy.Symbol("t")

    def monic(expr):
        poly = sympy.Poly(sympy.minimal_polynomial(expr, t), t).monic()
        return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))

    one = CycNum.rational(1)
    z1, z2 = cy.cyc_make(5, 1), cy.cyc_make(5, 2)
    i_cot1 = (one + z1) * (one - z1).inverse()
    i_cot2 = (one + z2) * (one - z2).inverse()
    ratio = i_cot1 * i_cot2.inverse()
    assert cy.minimal_polynomial(ratio) == \
        monic(sympy.cot(sympy.pi / 5) / sympy.cot(2 * sympy.pi / 5))
    assert cy.minimal_polynomial(cy.cos_angle(5, 1)) == monic(sympy.cos(sympy.pi / 5))
