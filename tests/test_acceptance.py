"""Acceptance suite: one test per criterion, each printing a pass line.

Expected values are frozen here: published 5-decimal tables are compared at
1e-4, everything else is exact integer or rational arithmetic.
"""

import math
import random
import time
from fractions import Fraction

from k3census import census as cs
from k3census import cyclotomic as cy
from k3census import e8, gindex as gi, kummer as km, reps, sgnperm as sp
from k3census.gindex import FixedPointData, SpinVector
from k3census.sgnperm import SignedPerm
from conftest import profile_from_rts


def _ok(num, msg):
    print("[criterion %s] PASS: %s" % (num, msg))


def test_criterion_01_root_system():
    start = time.perf_counter()
    roots = e8.enumerate_roots()
    assert len(roots) == 240
    rs = e8.root_set()
    for r in roots:
        for x in roots:
            assert e8.reflect(r, x).d in rs
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "took %.2fs" % elapsed
    _ok(1, "240 roots, closed under all 240 reflections in %.2fs" % elapsed)


def test_criterion_02_involution_classification():
    start = time.perf_counter()
    four_a = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f(7)
    four_ap = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f7_prime()
    f8 = e8.standard_basis()[7]
    assert e8.inner(four_a.apply(f8), f8) == 1
    assert sp.involution_class(four_a).label == "4A"
    assert sp.parity_witness(four_ap) is None  # all 240 pairings even
    assert sp.involution_class(four_ap).label == "4A'"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(2, "witness pairing 1 at the hanging root; even-pairing test over all "
           "240 roots in %.2fs" % elapsed)


def test_criterion_03_representation_census():
    assert [d.as_rts() for d in reps.lemma45_census(7)] == [(1, 1, 0)]
    assert [d.as_rts() for d in reps.lemma45_census(5)] == [(0, 0, 2), (1, 3, 0)]
    assert sorted(d.as_rts() for d in reps.lemma45_census(3)) == \
        [(0, 0, 4), (1, 1, 2), (1, 5, 0), (2, 2, 0)]
    _ok(3, "census sizes 4 / 2 / 1 for p = 3, 5, 7 with the exact entries")


def test_criterion_04_defect_values():
    assert gi.signature_defect(5, 1) == -4
    assert gi.signature_defect(5, 2) == 0
    assert gi.signature_defect(5, 3) == 0
    assert (cs.group_defect(5, "1"), cs.group_defect(5, "3"),
            cs.group_defect(5, "4")) == (4, -8, -4)
    assert (cs.group_defect(7, "1"), cs.group_defect(7, "2"),
            cs.group_defect(7, "3")) == (10, -8, 2)
    assert cs.group_defect(5, "A4~") == -20
    for k in (1, 2, 3, 4):
        assert cs.group_signature(5, "A4~", k).as_rational() == -5
    _ok(4, "defect table, group totals, and the chain-group values exact")


# residues per group type ("1", "3", "4", "A4~") of the p = 5 cases
CASE_A = ((1, 2), (1, 1, 2, 2), (), ())
CASE_B = ((), (1, 2), (1, 2), ())
CASE_C = ((), (1, 1), (2, 2), ())
CASE_D = ((1, 2), (1,), (2,), ())
CASE_I = ((1, 1, 2, 2), (), (), (1, 1))
CASE_II = ((1, 2), (1,), (2,), (1,))
CASE_III = ((1, 1, 2, 2), (), (), (1,))


def _family(u0, v0):
    return {(u0 - w + a, v0 - w - 2 * a, w, a) for w in range(v0 + 1) for a in range(v0 + 1)
            if u0 - w + a >= 0 and v0 - w - 2 * a >= 0}


def test_criterion_05_p5_census():
    start = time.perf_counter()
    pr1 = profile_from_rts(5, (1, 3, 0), (1, 3, 0))
    prm = profile_from_rts(5, (1, 3, 0), (0, 0, 2))
    pr0 = profile_from_rts(5, (0, 0, 2), (0, 0, 2))
    assert set(cs.stage1(pr1)) == _family(2, 4)   # (2-w+A, 4-w-2A)
    assert set(cs.stage1(prm)) == _family(3, 2)   # (3-w+A, 2-w-2A)
    assert cs.stage1(pr0) == ((4, 0, 0, 0),)
    run = cs.run_p5()
    by_label = {c.cid: c.residues for c in run.candidates}
    assert by_label["a"] == CASE_A and by_label["b"] == CASE_B
    assert by_label["c"] == CASE_C and by_label["d"] == CASE_D
    assert by_label["i"] == CASE_I and by_label["ii"] == CASE_II
    assert by_label["iii"] == CASE_III
    eliminated = {a.candidate_id for a in run.audits
                  if a.verdict == "ruled_out" and a.filter_name != "exact_signature"}
    assert eliminated == {"a", "b", "d", "ii"}
    assert run.survivors == ("c", "i", "iii")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _ok(5, "stage-1 families, refined cases, eliminations and survivors in "
           "%.1fs" % elapsed)


def test_criterion_06_spin_numbers():
    expect = {
        "a": (-3, (-2, 1, 1, 1, 1)),
        "b": (-3, (-2, 1, 1, 1, 1)),
        "c": (None, (-2, 0, 2, 2, 0)),
        "d": (None, (0, 0, 1, 1, 0)),
        "i": (2, (2, 0, 0, 0, 0)),
        "iii": (2, (2, 0, 0, 0, 0)),
    }
    run = cs.run_p5()
    by_label = {c.cid: c for c in run.candidates}
    mu2mu3 = cy.cyc_make(5, 2) + cy.cyc_make(5, 3)
    for label, (rational, dvec) in expect.items():
        data = by_label[label].fixed_point_data()
        val = gi.spin_value(data)
        if rational is not None:
            assert val.as_rational() == rational
        sv = gi.spin_number(data, val, ind_dirac=2)
        assert sv.d == dvec
        assert sv.d[0] % 2 == 0
        assert all(sv.d[k] == sv.d[5 - k] for k in range(1, 5))
    assert gi.spin_value(by_label["c"].fixed_point_data()) == mu2mu3 * 2 - 2
    assert gi.spin_value(by_label["d"].fixed_point_data()) == mu2mu3
    _ok(6, "spin characters of the census cases, exact with the stated symmetry")


def test_criterion_07_p7_census():
    start = time.perf_counter()
    run = cs.solve_p7()
    assert [sols for _, sols in run.stage1] == [((0, 2, 2), (1, 3, 1), (2, 4, 0))]
    rep = cs.report(run)
    assert rep["delta_table"] == {
        "1": {"1": "4.31194", "2": "0.63596", "3": "0.05210"},
        "2": {"1": "-4.49396", "2": "-1.10992", "3": "1.60388"},
        "3": {"1": "-2.60388", "2": "3.49396", "3": "0.10992"},
    }
    assert {t: rep["nu_table"][t] for t in ("2", "3")} == {
        "2": {"1": "-1.00000", "2": "-1.00000", "3": "-1.00000"},
        "3": {"1": "-0.44504", "2": "-1.80194", "3": "1.24698"},
    }
    # compare the exact values against the published decimals at 1e-4
    for typ, per in cs.delta_values(7).items():
        for k, val in per.items():
            got, _ = cy.embed_real(val, 10)
            assert abs(float(got) - float(rep["delta_table"][typ][str(k)])) < 1e-4
    assert run.structure["equal_k_forced"]
    assert run.structure["points"] == {"(2k,3k)": 2, "(-k,-k)": 2,
                                       "(2k,4k)": 2, "(-2k,k)": 4}
    sig = {a.candidate_id: a.verdict for a in run.audits
           if a.filter_name == "exact_signature"}
    assert sig["(1,1,0)x(1,1,0) n=1,3,1"] == "ruled_out"
    assert sig["(1,1,0)x(1,1,0) n=2,4,0"] == "ruled_out"
    (survivor,) = [c for c in run.candidates if c.cid in run.survivors]
    assert survivor.fixed_point_data().euler_characteristic() == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _ok(7, "stage-1 triple, decimal tables at 1e-4, equal-residue forcing, "
           "10-point survivor in %.1fs" % elapsed)


def test_criterion_08_kirby_siebenmann():
    pts = [(1, 2), (-1, 4), (-1, 4)] * 2 + [(2, 2), (-2, 6), (-2, 6), (-2, 6)] * 2
    data = FixedPointData(5, tuple(pts))
    sign_n = gi.orbifold_signature(5, -16, data)
    assert sign_n == -8
    res = gi.ks_rochlin_test([(5, 1)] * 6 + [(5, 2)] * 6 + [(5, 3)] * 2, int(sign_n))
    assert res.congruence_value == 0 and res.ks == 0
    _ok(8, "Sign(N) = -8 and the boundary congruence give ks = 0 exactly")


def test_criterion_09_minimal_polynomials():
    one = cy.CycNum.rational(1)
    z1, z2 = cy.cyc_make(5, 1), cy.cyc_make(5, 2)
    ratio = ((one + z1) / (one - z1)) / ((one + z2) / (one - z2))
    assert cy.minimal_polynomial(ratio) == (Fraction(-1), Fraction(-4), Fraction(1))
    cosv = cy.cos_angle(5, 1)
    assert cy.minimal_polynomial(cosv) == (Fraction(-1, 4), Fraction(-1, 2), Fraction(1))
    # 4 t^2 - 2 t - 1 = 0 exactly at cos(pi/5)
    assert (cosv * cosv * 4 - cosv * 2 - 1).is_zero()
    _ok(9, "t^2 - 4t - 1 for the cotangent ratio; 4t^2 - 2t - 1 kills cos(pi/5)")


def test_criterion_10_fixed_roots_and_subsystems():
    start = time.perf_counter()
    fixed5 = sp.fixed_roots(sp.std_cycle(5))
    omega1 = {r.d for r in fixed5 if all(x == 0 for x in r.d[:5])}
    omega2 = {r.d for r in fixed5 if all(x != 0 for x in r.d)}
    assert len(fixed5) == 20 and len(omega1) == 12 and len(omega2) == 8
    assert omega1 | omega2 == {r.d for r in fixed5}
    witness = (
        e8.LatticeVec((0, 0, 0, 0, 0, 2, -2, 0)),
        e8.LatticeVec((-1, -1, -1, -1, -1, -1, 1, 1)),
        e8.LatticeVec((1, 1, 1, 1, 1, -1, -1, 1)),
        e8.LatticeVec((0, 0, 0, 0, 0, 2, 2, 0)),
    )
    fixed_set = {r.d for r in fixed5}
    assert all(w.d in fixed_set for w in witness)
    assert e8.root_subsystem_type(witness, "A4") is not None
    assert e8.root_subsystem_type(fixed5, "A4") is not None
    assert e8.root_subsystem_type(fixed5, "D4") is None
    assert e8.root_subsystem_type(fixed5, "A2+A2") is None
    fixed7 = sp.fixed_roots(sp.std_cycle(7))
    assert {r.d for r in fixed7} == {(1,) * 8, (-1,) * 8}
    assert e8.root_subsystem_type(fixed7, "A2") is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _ok(10, "fixed-root sets and subsystem verdicts, exhaustive in %.2fs" % elapsed)


def test_criterion_11_kummer_bases():
    rep = km.verify_e8_bases()
    assert rep.gram_first == tuple(map(tuple, km.minus_e8_matrix()))
    assert rep.gram_second == rep.gram_first
    assert rep.cross_pairings_zero and rep.torus_orthogonal
    tori = [km.fiber_class(j) for j in (1, 2, 3)]
    for a in tori:
        for b in tori:
            assert km.pair(a, b) == 0
    _ok(11, "both bases Gram = -E8, mutual and fiber-class orthogonality exact")


def test_criterion_12_subgroup_obstructions():
    start = time.perf_counter()
    fix = cs.q8_fixture_solver()
    assert fix.solutions == ((4, 0), (4, 2), (4, 4))
    assert fix.forced_fixed_points == 4
    z24 = sp.search_z2_4_obstruction()
    assert z24.average_fixed_dim == Fraction(1, 2)
    assert z24.max_all_even_rank == 3
    q8 = sp.search_q8_obstruction()
    for t1 in q8.trace_triples:
        for t2 in q8.trace_triples:
            assert tuple(x + y for x, y in zip(t1, t2)) != (-4, -4, -4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _ok(12, "linear system, forced 4 fixed points, both searches empty in "
            "%.1fs (averaged dimension 1/2)" % elapsed)


def test_criterion_13_lifting():
    res = reps.lift_summand([[1, 1], [0, -1]], [[1, 0]], [0, 1])
    assert not res.lifted and res.kind == "cyclotomic"
    triv = reps.lift_summand([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0]], [0, 0, 1])
    reg = reps.lift_summand([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0]], [0, 1, 0])
    assert triv.lifted and reg.lifted
    _ok(13, "no lift on the rank-two example; trivial and regular lifts built")


def test_criterion_14_property_suites():
    rng = random.Random(20260810)
    # cyclotomic field axioms
    for n in (5, 7, 10):
        for _ in range(20):
            a, b, c = (cy.CycNum(n, [Fraction(rng.randint(-4, 4)) for _ in
                                     range(cy.euler_phi(n))]) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == 1
    # isometry of signed permutations
    fs = e8.standard_basis()
    for _ in range(50):
        perm = list(range(8))
        rng.shuffle(perm)
        eps = [rng.choice((1, -1)) for _ in range(8)]
        if eps.count(-1) % 2:
            eps[0] = -eps[0]
        g = SignedPerm.from_eps_perm(tuple(eps), tuple(perm))
        u = sum((f.scaled(rng.randint(-2, 2)) for f in fs), e8.LatticeVec((0,) * 8))
        v = sum((f.scaled(rng.randint(-2, 2)) for f in fs), e8.LatticeVec((0,) * 8))
        assert e8.inner(g.apply(u), g.apply(v)) == e8.inner(u, v)
    # two-path signature agreement on 100 random data sets
    mismatches = 0
    for _ in range(100):
        p = rng.choice((5, 7))
        iso = tuple((rng.randint(1, p - 1), rng.randint(1, p - 1))
                    for _ in range(rng.randint(0, 4)))
        surf = tuple((rng.randint(0, 2), 2 * rng.randint(-2, 2), rng.randint(1, p - 1))
                     for _ in range(rng.randint(0, 2)))
        data = FixedPointData(p, iso, surf)
        lhs = gi.signature_g(data)
        for k in range(2, p):
            lhs = lhs + gi.signature_g(data.at_power(k))
        rhs = sum((gi.point_defect(p, a, b) for a, b in iso), Fraction(0))
        rhs += sum((gi.surface_defect(p, si) for _, si, _ in surf), Fraction(0))
        if lhs.as_rational() != rhs:
            mismatches += 1
    assert mismatches == 0
    _ok(14, "field axioms, isometries, and 100 two-path signature identities "
            "with zero mismatches")
