"""The mpmath decimal embedding, kept here and nowhere in the package, as the
reference for the certified integer one in `cyclotomic.embed_real` and
`cyclotomic.embed_str`: every value the reports print, every cot/csc table
entry, seeded field elements at 1 to 20 digits, and the exact ties that a
precision loop alone would never settle."""

import random
from fractions import Fraction

import mpmath
import pytest

from k3census import census, gindex
from k3census import cyclotomic as cy
from k3census.cyclotomic import CycNum

CONDUCTORS = (1, 3, 4, 5, 7, 8, 12, 15, 35)


# ---------------------------------------------------------------------------
# reference embedding (mpmath, digits + 25 working decimal places)


def ref_embed_real(x, digits=15):
    with mpmath.workdps(digits + 25):
        z = mpmath.e ** (2j * mpmath.pi / x.n)
        total = mpmath.mpc(0)
        zp = mpmath.mpc(1)
        for c in x.coeffs:
            if c:
                total += mpmath.mpf(c.numerator) / c.denominator * zp
            zp *= z
        return mpmath.mpf(total.real), mpmath.mpf(total.imag)


def ref_fixed(v, digits):
    with mpmath.workdps(digits + 25):
        r = int(mpmath.nint(v * 10**digits))
    sign = "-" if r < 0 else ""
    r = abs(r)
    return "%s%d.%0*d" % (sign, r // 10**digits, digits, r % 10**digits)


def ref_embed_str(x, digits=5):
    re, im = ref_embed_real(x, digits + 5)
    with mpmath.workdps(digits + 25):
        if abs(im) > mpmath.mpf(10) ** (-digits):
            return "%s + %si" % (ref_fixed(re, digits), ref_fixed(im, digits))
    return ref_fixed(re, digits)


def _same_strings(values, digit_range):
    for x in values:
        for d in digit_range:
            assert cy.embed_str(x, d) == ref_embed_str(x, d), (x, d)


def _seeded(n, rng, real):
    x = CycNum(n, [Fraction(rng.randint(-60, 60), rng.randint(1, 40))
                   for _ in range(cy.euler_phi(n))])
    return x + x.conjugate() if real else x


I = CycNum.zeta(4, 1)


# ---------------------------------------------------------------------------
# the embedding against the reference


def test_report_values_match_reference():
    # the delta and nu tables both census reports print, and the spin
    # values of their fang audits
    values = [v for p in (5, 7) for table in (census.delta_values(p), census.nu_values(p))
              for per in table.values() for v in per.values()]
    candidates = census.run_p5().candidates + census.solve_p7().candidates
    values += [gindex.spin_value(c.fixed_point_data()) for c in candidates]
    assert len(values) == 2 * (4 * 2 + 3 * 3) + 10
    _same_strings(values, (1, 5, 15))


def test_cot_csc_tables_match_reference():
    values = []
    for p in (5, 7):
        values += [cy.cot_product(p, a, b) for a in range(1, p) for b in range(1, p)]
        values += [cy.csc_squared(p, c) for c in range(1, p)]
        values += [cy.csc_cot(p, c) for c in range(1, p)]
    _same_strings(values, (1, 5, 15))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_seeded_elements_match_reference(n):
    rng = random.Random(8000 + n)
    values = [_seeded(n, rng, real) for real in (True, False) for _ in range(6)]
    _same_strings(values, range(1, 21))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_embed_real_within_digits_of_reference(n):
    rng = random.Random(9000 + n)
    for real in (True, False):
        x = _seeded(n, rng, real)
        for d in (1, 5, 15, 30):
            re, im = cy.embed_real(x, d)
            assert isinstance(re, Fraction) and isinstance(im, Fraction)
            want_re, want_im = ref_embed_real(x, d + 20)
            with mpmath.workdps(d + 40):
                tol = mpmath.mpf(10) ** -d
                assert abs(mpmath.mpf(re.numerator) / re.denominator - want_re) <= tol
                assert abs(mpmath.mpf(im.numerator) / im.denominator - want_im) <= tol


def test_digits_below_one_rejected():
    for f in (cy.embed_real, cy.embed_str):
        with pytest.raises(ValueError):
            f(CycNum.rational(1), 0)


# ---------------------------------------------------------------------------
# the certified pieces


def test_unit_circle_and_pi_bounds_hold():
    with mpmath.workdps(400):
        for g in (64, 128, 256):
            pi, err = cy._pi_fixed(g)
            assert abs(mpmath.pi * 2**g - pi) <= err
            for n in CONDUCTORS + (2, 6, 9, 16, 60):
                cos, sin, errs = cy._unit_circle(n, g)
                assert len(cos) == len(sin) == len(errs) == cy.euler_phi(n)
                for k, (c, s, e) in enumerate(zip(cos, sin, errs)):
                    angle = 2 * mpmath.pi * k / n
                    assert abs(mpmath.cos(angle) * 2**g - c) <= e, (n, g, k)
                    assert abs(mpmath.sin(angle) * 2**g - s) <= e, (n, g, k)


# ---------------------------------------------------------------------------
# exact ties: each settles in a bounded number of enclosures


@pytest.fixture
def bounded_enclosures(monkeypatch):
    """Fail instead of hanging if a loop keeps asking for finer enclosures."""
    enclose = cy._enclose
    calls = []

    def counted(x, g):
        calls.append(g)
        if len(calls) > 8:
            raise AssertionError("the precision loop did not settle")
        return enclose(x, g)

    monkeypatch.setattr(cy, "_enclose", counted)
    return calls


TIES = [
    (CycNum.rational(Fraction(1, 40)), 2, "0.02"),
    (CycNum.rational(Fraction(3, 40)), 2, "0.08"),
    (CycNum.rational(Fraction(-1, 40)), 2, "-0.02"),
    (CycNum.rational(Fraction(1, 4)), 1, "0.2"),
    (CycNum.rational(Fraction(-3, 4)), 1, "-0.8"),
    (CycNum.rational(Fraction(1, 40)) + I * Fraction(1, 3), 2, "0.02 + 0.33i"),
    (CycNum.rational(Fraction(1, 3)) + I * Fraction(3, 40), 2, "0.33 + 0.08i"),
    (CycNum.rational(Fraction(1, 3)) + I * Fraction(1, 40), 2, "0.33 + 0.02i"),
    # real part a tie, imaginary part 2 sin(2 pi / 5) irrational
    (Fraction(1, 40) + CycNum.zeta(5, 1) - CycNum.zeta(5, 4), 2, "0.02 + 1.90i"),
    # |Im| exactly 10^-digits is not flagged
    (CycNum.rational(Fraction(1, 3)) + I * Fraction(1, 100), 2, "0.33"),
    (CycNum.rational(Fraction(1, 3)) - I * Fraction(1, 10**5), 5, "0.33333"),
]


@pytest.mark.parametrize("x,digits,want", TIES)
def test_exact_ties_round_half_to_even(bounded_enclosures, x, digits, want):
    assert cy.embed_str(x, digits) == want
    assert ref_embed_str(x, digits) == want


def test_imaginary_flag_is_strict_at_the_bound(bounded_enclosures):
    def show(x, d):
        bounded_enclosures.clear()
        return cy.embed_str(x, d)

    # |Im| = 10^-d exactly is not flagged; a hair above it is
    for d in (1, 2, 5, 9):
        t = Fraction(1, 10**d)
        assert show(Fraction(1, 7) + I * t, d) == show(CycNum.rational(Fraction(1, 7)), d)
        assert show(I * -t, d) == "0." + "0" * d
        above = show(I * (t + Fraction(1, 10**(d + 3))), d)
        assert above == "0.%s + 0.%s1i" % ("0" * d, "0" * (d - 1)), above
