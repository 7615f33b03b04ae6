import random
from fractions import Fraction

import pytest

from k3census import gindex as gi
from k3census.cyclotomic import embed_str
from k3census.errors import CheckFailure
from k3census.gindex import FixedPointData, SpinVector
from conftest import is_real


def test_lefschetz():
    assert gi.lefschetz(6) == 8
    assert gi.lefschetz(8) == 10
    assert gi.lefschetz(22) == 24


def test_data_validation():
    with pytest.raises(ValueError):
        FixedPointData(5, ((5, 1),))
    with pytest.raises(ValueError):
        FixedPointData(5, (), ((0, -2, 5),))
    with pytest.raises(ValueError):
        FixedPointData(5, (), ((-1, 0, 1),))


def test_signature_defect_values():
    assert gi.signature_defect(5, 1) == -4
    assert gi.signature_defect(5, 2) == 0
    assert gi.signature_defect(5, 3) == 0
    for p in (5, 7):
        for q in range(1, p):
            assert gi.signature_defect(p, q) == -gi.signature_defect(p, p - q)
    with pytest.raises(ValueError):
        gi.signature_defect(5, 5)


def test_point_defect_reduces_to_defect_of_ratio():
    for p in (5, 7):
        for a in range(1, p):
            for b in range(1, p):
                q = (b * pow(a, -1, p)) % p
                assert gi.point_defect(p, a, b) == gi.signature_defect(p, q)


def test_signature_examples():
    assert gi.signature_g(FixedPointData(5)).as_rational() == 0
    # a single chain group gives -5 regardless of the residue
    for k in (1, 2, 3, 4):
        data = FixedPointData(5, ((-3 * k, -k), (-3 * k, -k), (3 * k, 3 * k)),
                              ((0, -2, k),))
        assert gi.signature_g(data).as_rational() == -5


def test_orbifold_signature_case_c():
    pts = []
    for _ in range(2):
        pts += [(1, 2), (-1, 4), (-1, 4)]
    for _ in range(2):
        pts += [(2, 2), (-2, 6), (-2, 6), (-2, 6)]
    data = FixedPointData(5, tuple(pts))
    assert gi.orbifold_signature(5, -16, data) == -8
    assert gi.signature_g(data).as_rational() == -6
    # free action
    assert gi.orbifold_signature(5, 0, FixedPointData(5)) == 0


def test_orbifold_signature_rejects_fractional_quotient():
    with pytest.raises(CheckFailure):
        gi.orbifold_signature(5, -15, FixedPointData(5, ((1, 1),)))


def test_orbifold_signature_check_survives_optimized_python(run_optimized):
    res = run_optimized("-c", "from k3census import gindex as gi\n"
                        "gi.orbifold_signature(5, -15, gi.FixedPointData(5, ((1, 1),)))")
    assert res.returncode == 1
    assert "CheckFailure: averaged signature -19/5 is not an integer" in res.stderr


def test_spin_vector_invariants():
    with pytest.raises(ValueError):
        SpinVector(5, (1, 1, 1, 1, 1))   # odd d0
    with pytest.raises(ValueError):
        SpinVector(5, (0, 1, 0, 0, 2))   # symmetry broken
    v = SpinVector(5, (-2, 1, 1, 1, 1))
    assert v.total() == 2


def test_spin_numbers_census_cases():
    # fourteen-point survivor
    pts = [(1, 2), (-1, 4), (-1, 4)] * 2 + [(2, 2), (-2, 6), (-2, 6), (-2, 6)] * 2
    data = FixedPointData(5, tuple(pts))
    d = gi.spin_number(data, gi.spin_value(data))
    assert d.d == (-2, 0, 2, 2, 0)
    # the ruled-out symmetric case (four three-point groups, two isolated
    # points): value -3
    pts_a = [(1, 2), (-1, 4), (-1, 4)] * 2 + [(2, 4), (-2, 3), (-2, 3)] * 2 \
        + [(1, -1), (2, -2)]
    data_a = FixedPointData(5, tuple(pts_a))
    da = gi.spin_number(data_a, gi.spin_value(data_a))
    assert da.d == (-2, 1, 1, 1, 1)
    assert gi.spin_value(data_a).as_rational() == -3


def test_chain_group_spin_vanishes():
    for k in (1, 2, 3, 4):
        data = FixedPointData(5, ((-3 * k, -k), (-3 * k, -k), (3 * k, 3 * k)),
                              ((0, -2, k),))
        assert gi.spin_value(data).is_zero()


def test_fang():
    assert gi.fang_test(SpinVector(5, (-2, 1, 1, 1, 1)), 3) == "ruled_out"
    assert gi.fang_test(SpinVector(5, (-2, 0, 2, 2, 0)), 3) == "survives"
    assert gi.fang_test(SpinVector(5, (0, 0, 1, 1, 0)), 3) == "ruled_out"


def test_furuta():
    assert gi.furuta_test(-2, 3, 3) == "survives"
    assert gi.furuta_test(2, 3, 3) == "survives"
    assert gi.furuta_test(0, 1, 0) == "survives"
    assert gi.furuta_test(3, 3, 3) == "ruled_out"
    assert gi.furuta_test(-3, 3, 3) == "ruled_out"


def test_rochlin_table_and_ks():
    assert gi.rochlin(5, 1) == 4
    assert gi.rochlin(5, 2) == 0
    assert gi.rochlin(5, 3) == 0
    # derived for every odd p, not read from a table
    assert gi.rochlin(5, 4) == 12
    assert gi.rochlin(7, 1) == 6
    for p, q in ((6, 1), (5, 5), (9, 3), (4, 3)):
        with pytest.raises(ValueError):
            gi.rochlin(p, q)
    res = gi.ks_rochlin_test([(5, 1)] * 6 + [(5, 2)] * 6 + [(5, 3)] * 2, -8)
    assert res.ks == 0 and res.smoothable
    assert gi.ks_rochlin_test([], 0).ks == 0
    assert gi.ks_rochlin_test([(5, 1)] * 2, 0).ks == 1
    with pytest.raises(ValueError):
        gi.ks_rochlin_test([(5, 1)], 0)  # congruence value 4: inconsistent data


def test_lens_space_labels():
    assert gi.lens_space(5, 1, 1) == (5, 1)
    assert gi.lens_space(5, 2, 2) == (5, 1)
    assert gi.lens_space(5, 1, 2) == (5, 2)
    with pytest.raises(ValueError):
        gi.lens_space(5, 5, 1)


def _random_data(rng, p):
    iso = tuple((rng.randint(1, p - 1), rng.randint(1, p - 1))
                for _ in range(rng.randint(0, 5)))
    surf = tuple((rng.randint(0, 2), 2 * rng.randint(-2, 2), rng.randint(1, p - 1))
                 for _ in range(rng.randint(0, 2)))
    return FixedPointData(p, iso, surf)


def test_two_path_signature_agreement():
    # sum over nontrivial powers of the pointwise formula equals the total
    # defect; exact identity on random data
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(100):
        p = rng.choice((5, 7))
        data = _random_data(rng, p)
        lhs = sum((gi.signature_g(data.at_power(k)) for k in range(2, p)),
                  gi.signature_g(data))
        total = lhs.as_rational()
        rhs = sum((gi.point_defect(p, a, b) for a, b in data.isolated), Fraction(0))
        rhs += sum((gi.surface_defect(p, si) for _, si, _ in data.surfaces), Fraction(0))
        if total != rhs:
            mismatches += 1
    assert mismatches == 0


def test_spin_value_real_on_conjugation_closed_data():
    rng = random.Random(77)
    for _ in range(40):
        p = rng.choice((5, 7))
        half = [(rng.randint(1, p - 1), rng.randint(1, p - 1))
                for _ in range(rng.randint(1, 4))]
        # include the conjugate of each point so the character is real
        pts = half + [(p - a, p - b) for a, b in half]
        val = gi.spin_value(FixedPointData(p, tuple(pts)))
        assert is_real(val)
