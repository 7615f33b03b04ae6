import math
import random
from fractions import Fraction

import pytest

from k3census import cyclotomic as cy
from k3census.cyclotomic import CycNum, cyc_make, cot_product, csc_squared
from conftest import is_real


def test_identity_cases():
    assert cyc_make(1, 0) == 1
    assert cyc_make(5, 5) == 1
    assert cyc_make(5, 0) == 1


def test_bad_conductor_rejected():
    with pytest.raises(ValueError):
        cyc_make(0, 1)
    with pytest.raises(ValueError):
        cyc_make(-3, 1)


def test_sum_of_nontrivial_fifth_roots():
    s = cyc_make(5, 1) + cyc_make(5, 2) + cyc_make(5, 3) + cyc_make(5, 4)
    assert s == -1


def test_cot_product_numeric():
    # oracle: float evaluation of -cot(a pi/p) cot(b pi/p)
    for p, a, b in [(5, 1, 4), (5, 2, 3), (7, 1, 6), (7, 2, 3), (7, 2, 5)]:
        want = -1.0 / (math.tan(a * math.pi / p) * math.tan(b * math.pi / p))
        got, im = cy.embed_real(cot_product(p, a, b), 12)
        assert abs(float(got) - want) < 1e-9
        assert abs(float(im)) < 1e-12


def test_cot_product_symmetry_and_reality():
    for p in (5, 7):
        for k in range(1, p):
            v = cot_product(p, k, -k)
            assert is_real(v)
            got, _ = cy.embed_real(v, 10)
            assert float(got) > 0  # cot^2 is positive


def test_cot_product_pole_rejected():
    with pytest.raises(ValueError):
        cot_product(5, 0, 1)
    with pytest.raises(ValueError):
        cot_product(5, 5, 1)


def test_csc_squared_values():
    got, _ = cy.embed_real(csc_squared(5, 1), 10)
    assert abs(float(got) - 1 / math.sin(math.pi / 5) ** 2) < 1e-9
    assert csc_squared(5, 1) == csc_squared(5, -1)
    assert (csc_squared(5, 1) + csc_squared(5, 2)).as_rational() == 4


def test_embed_known_decimal():
    x = cyc_make(7, 1) + cyc_make(7, 6)  # 2 cos(2 pi / 7)
    assert cy.embed_str(x, 5) == "1.24698"
    assert cy.embed_str(CycNum.rational(1), 5) == "1.00000"
    assert cy.embed_str(cot_product(7, 1, 6), 5) == "4.31194"


def test_embed_digit_stability():
    x = cot_product(7, 2, 3)
    s10 = cy.embed_str(x, 10)
    s5 = cy.embed_str(x, 5)
    # rounding, not truncation: compare through the longer rendering
    assert abs(float(s10) - float(s5)) < 1e-5


def test_minimal_polynomial_examples():
    one = CycNum.rational(1)
    z1, z2 = cyc_make(5, 1), cyc_make(5, 2)
    ratio = ((one + z1) / (one - z1)) / ((one + z2) / (one - z2))  # cot ratio
    assert cy.minimal_polynomial(ratio) == (Fraction(-1), Fraction(-4), Fraction(1))
    assert cy.minimal_polynomial(CycNum.rational(1)) == (Fraction(-1), Fraction(1))
    assert cy.minimal_polynomial(cy.cos_angle(5, 1)) == \
        (Fraction(-1, 4), Fraction(-1, 2), Fraction(1))


def test_minimal_polynomial_divides_charpoly_degree():
    z = cyc_make(7, 1)
    mp = cy.minimal_polynomial(z)
    assert len(mp) - 1 == 6  # primitive 7th root has degree phi(7)


def test_as_rational():
    assert cyc_make(5, 1).as_rational() is None
    assert (cyc_make(5, 1) * cyc_make(5, 4)).as_rational() == 1
    assert CycNum.rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)


def test_field_axioms_random():
    rng = random.Random(20260810)

    def rand_elt(n):
        return CycNum(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(cy.euler_phi(n))])

    for n in (5, 7, 10, 12):
        for _ in range(25):
            a, b, c = rand_elt(n), rand_elt(n), rand_elt(n)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_galois_is_ring_automorphism():
    rng = random.Random(7)
    n = 7
    for _ in range(20):
        a = CycNum(n, [Fraction(rng.randint(-4, 4)) for _ in range(6)])
        b = CycNum(n, [Fraction(rng.randint(-4, 4)) for _ in range(6)])
        for k in (2, 3, 6):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    with pytest.raises(ValueError):
        cyc_make(10, 1).galois(5)


def test_real_subfield_membership():
    for p in (5, 7):
        for a in range(1, p):
            for b in range(1, p):
                assert is_real(cot_product(p, a, b))
            assert is_real(csc_squared(p, a))


def test_half_angle_conductor_identity():
    # zeta_{2p} = -zeta_p^{(p+1)/2}
    for p in (3, 5, 7):
        assert cyc_make(2 * p, 1) == -cyc_make(p, (p + 1) // 2)


def test_mixed_conductor_promotion():
    # an equation mixing conductors 5 and 10
    assert cyc_make(10, 2) == cyc_make(5, 1)
    x = cyc_make(10, 1) + cyc_make(5, 2)
    assert x.n == 10
    assert x - cyc_make(5, 2) == cyc_make(10, 1)


def test_csc_cot_matches_float():
    for p, c in [(5, 1), (5, 2), (7, 3)]:
        want = (1 / math.sin(c * math.pi / p)) * (1 / math.tan(c * math.pi / p))
        got, im = cy.embed_real(cy.csc_cot(p, c), 12)
        assert abs(float(got) - want) < 1e-9 and abs(float(im)) < 1e-12
