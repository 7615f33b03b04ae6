"""Plain Fraction reference versions of the cyclotomic and lattice-matrix
kernels, kept here and nowhere in the package.  Each pins an integer kernel
(CycNum products, inverses and conjugates, the integer characteristic
polynomial, the f-basis change, the reflection word product) to the rational
polynomial or linear-algebra route it replaces.  The closed-form
1 / (1 - z^c) is pinned by its reference product with 1 - z^c, and the cot,
csc and Dirac point-term elements built on it to the `/` route they
replaced."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from k3census import cli, cyclotomic as cy, e8, gindex, linalg, reps
from k3census.cyclotomic import CycNum
from k3census.sgnperm import SignedPerm
from test_e8_oracles import ref_basis_inverse
from test_linalg import identity

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
    n, c = elt
    assert CycNum(n, c).coeffs == ref_reduce(c, n)


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
@given(elements())
def test_inverses_match_reference(elt):
    n, c = elt
    x = CycNum(n, c)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert x.inverse().coeffs == ref_inverse(x.coeffs, n)
    assert x * x.inverse() == 1


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


@ORACLE
@given(elements())
def test_representation_is_canonical(elt):
    n, c = elt
    x = CycNum(n, c)
    y = CycNum(n, x.coeffs)
    assert x == y and repr(x) == repr(y)
    num, den = x._num, x._den
    assert den > 0 and gcd(den, *num) == 1
    assert (y._num, y._den) == (num, den)


def test_trig_elements_match_reference():
    def one_plus(k, sign, p):  # 1 + sign * z^k
        z = ref_zeta(p, k)
        return ref_reduce([1 + sign * z[0]] + [sign * x for x in z[1:]], p)

    for p in (3, 5, 7):
        for a in range(1, p):
            for b in range(1, p):
                want = ref_mul(ref_mul(one_plus(a, 1, p), one_plus(b, 1, p), p),
                               ref_inverse(ref_mul(one_plus(a, -1, p), one_plus(b, -1, p), p), p),
                               p)
                assert cy.cot_product(p, a, b).coeffs == want
                assert cy.cot_product(p, a + p, b - p) is cy.cot_product(p, a + p, b - p)
            csc2 = ref_mul(ref_reduce([Fraction(4)], p),
                           ref_inverse(ref_mul(one_plus(a, -1, p), one_plus(-a, -1, p), p), p), p)
            assert cy.csc_squared(p, a).coeffs == csc2
            assert cy.csc_cot(p, a).coeffs == ref_mul(cy.cos_angle(p, a).coeffs, csc2, p)


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
    """The cot, csc and point-term elements as quotients through `/`."""
    one = CycNum.rational(1)

    def z(k):
        return CycNum.zeta(p, k)

    def cot_product(a, b):
        return ((one + z(a)) * (one + z(b))) / ((one - z(a)) * (one - z(b)))

    def csc_squared(c):
        return CycNum.rational(4) / ((one - z(c)) * (one - z(-c)))

    def point_term(a, b):
        r = next(r for r in range(p) if (2 * r + a + b) % p == 0)
        return z(r) / ((one - z(-a)) * (one - z(-b)))

    def cot_ratio(a, b):
        return ((one + z(a)) * (one - z(b))) / ((one - z(a)) * (one + z(b)))

    return cot_product, csc_squared, point_term, cot_ratio


def test_trig_elements_match_division_route():
    for p in DIVISION_PRIMES:
        cot_product, csc_squared, point_term, cot_ratio = division_route(p)
        for a in range(1, p):
            for b in range(1, p):
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
    ratio = ((one + z1) / (one - z1)) / ((one + z2) / (one - z2))
    assert cy.minimal_polynomial(ratio) == \
        monic(sympy.cot(sympy.pi / 5) / sympy.cot(2 * sympy.pi / 5))
    assert cy.minimal_polynomial(cy.cos_angle(5, 1)) == monic(sympy.cos(sympy.pi / 5))


# ---------------------------------------------------------------------------
# lattice matrices against the Fraction routes


def fraction_charpoly(a):
    """Faddeev-LeVerrier over Fraction."""
    n = len(a)
    am = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        m = [[sum(am[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def eight_solve_f_matrix(m_e):
    """Column j is the solution x = F^-1 M f_j of F x = M f_j, with
    F^-1 = B / s from sympy's exact inverse (independent of the Smith
    elimination behind e8.matrix_in_f_basis)."""
    s, b = ref_basis_inverse()
    fs = e8.standard_basis()
    f = [[fs[j].halves()[i] for j in range(8)] for i in range(8)]
    out = [[None] * 8 for _ in range(8)]
    for j in range(8):
        col = [sum(Fraction(m_e[i][k]) * f[k][j] for k in range(8)) for i in range(8)]
        coords = [sum(x * c for x, c in zip(row, col)) / s for row in b]
        for i in range(8):
            if coords[i].denominator != 1:
                raise ValueError("matrix does not preserve the lattice")
            out[i][j] = int(coords[i])
    return out


def rand_element(rng) -> SignedPerm:
    perm = list(range(8))
    rng.shuffle(perm)
    eps = [rng.choice((1, -1)) for _ in range(8)]
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return SignedPerm.from_eps_perm(tuple(eps), tuple(perm))


@pytest.fixture(scope="module")
def witness_inputs():
    """The e-coordinate matrices coxeter_witness hands to matrix_in_f_basis,
    each with its scale (4 for the integer Coxeter words), and its results."""
    seen = []
    original = e8.matrix_in_f_basis

    def record(m_e, scale=1):
        seen.append((m_e, scale))
        return original(m_e, scale)

    e8.matrix_in_f_basis = record
    try:
        results = [reps.coxeter_witness(p, (d.r, d.s, d.t))
                   for p in (3, 5, 7) for d in reps.lemma45_census(p)]
    finally:
        e8.matrix_in_f_basis = original
    return seen, [m for m in results if m is not None]


def test_charpoly_matches_fraction_leverrier(witness_inputs):
    _, witnesses = witness_inputs
    assert len(witnesses) == 7
    for m in witnesses:
        assert linalg.charpoly(m) == fraction_charpoly(m)
    rng = random.Random(31415)
    for _ in range(200):
        g = rand_element(rng)
        m = e8.matrix_in_f_basis(g.matrix_e())
        cp = linalg.charpoly(m)
        assert cp == fraction_charpoly(m) == list(g.charpoly())
        assert all(type(c) is int for c in cp)


def test_charpoly_rejects_non_integer_matrices():
    with pytest.raises(ValueError):
        linalg.charpoly([[Fraction(1, 2)]])


def test_matrix_in_f_basis_matches_eight_solves(witness_inputs):
    inputs, _ = witness_inputs
    assert len(inputs) == 7
    assert sorted(scale for _, scale in inputs) == [1, 1, 1, 1, 4, 4, 4]
    for m_e, scale in inputs:
        want = eight_solve_f_matrix([[Fraction(x, scale) for x in row] for row in m_e])
        assert e8.matrix_in_f_basis(m_e, scale) == want
    rng = random.Random(27182)
    for _ in range(200):
        m_e = rand_element(rng).matrix_e()
        assert e8.matrix_in_f_basis(m_e) == eight_solve_f_matrix(m_e)
    # a matrix that does not preserve the lattice fails on both routes
    half = [[Fraction(int(i == j), 1 + (i == j == 0)) for j in range(8)] for i in range(8)]
    for route in (e8.matrix_in_f_basis, eight_solve_f_matrix):
        with pytest.raises(ValueError):
            route(half)


def test_word_matrix_matches_fraction_product():
    rng = random.Random(1729)
    roots = e8.enumerate_roots()
    words = [list(ch) for ch in e8.orthogonal_a2_quadruple()] + list(map(list, e8.orthogonal_a4_pair()))
    words += [[rng.choice(roots) for _ in range(rng.randint(0, 6))] for _ in range(30)]
    for word in words:
        want = identity(8)
        for r in word:
            want = linalg.mat_mul(want, e8.reflection_matrix(r))
        assert e8.scaled_word_matrix(word) == [[4 * x for x in row] for row in want]
