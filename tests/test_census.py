import json

import pytest

from k3census import census as cs
from k3census.census import P5Counts, ThetaProfile


def profile(rts1, rts2, p=5):
    return ThetaProfile.from_rts(p, rts1, rts2)


def test_theta_profile_validation():
    with pytest.raises(ValueError):
        ThetaProfile.from_rts(5, (1, 1, 0), (1, 3, 0))
    pr = profile((1, 3, 0), (0, 0, 2))
    assert pr.sign_target() == -1
    assert pr.lefschetz_total() == 9
    assert pr.quotient_b2minus() == 7
    assert pr.max_tori() == 1
    assert not pr.is_degenerate()


def test_degenerate_profile_accepted_and_flagged():
    pr = profile((1, 3, 0), (0, 8, 0))
    assert pr.is_degenerate()
    fam = cs.solve_p5_stage1(pr)
    # the linear system still solves; the flag, not the solver, records the
    # hypothesis failure
    assert fam.solutions()
    assert all(not p.is_degenerate() for p in cs.nontrivial_profiles(5))


def test_stage1_families_match_closed_forms():
    f1 = cs.solve_p5_stage1(profile((1, 3, 0), (1, 3, 0)))
    assert f1.family_str() == "(2-w+A,4-w-2A)"
    f2 = cs.solve_p5_stage1(profile((1, 3, 0), (0, 0, 2)))
    assert f2.family_str() == "(3-w+A,2-w-2A)"
    f3 = cs.solve_p5_stage1(profile((0, 0, 2), (0, 0, 2)))
    assert f3.solutions() == ((4, 0, 0, 0),)


CASE_A = P5Counts(1, 1, 2, 2, 0, 0, 0)
CASE_B = P5Counts(0, 0, 1, 1, 1, 1, 0)
CASE_C = P5Counts(0, 0, 2, 0, 0, 2, 0)
CASE_D = P5Counts(1, 1, 1, 0, 0, 1, 0)
CASE_I = P5Counts(2, 2, 0, 0, 0, 0, 2)
CASE_II = P5Counts(1, 1, 1, 0, 0, 1, 1)
CASE_III = P5Counts(2, 2, 0, 0, 0, 0, 1)
CASE_BASE = P5Counts(2, 2, 0, 0, 0, 0, 0)


def test_case_tuples_read_back_correctly():
    assert CASE_A.xyz() == (4, 4, 2, 2, 1, 1) and CASE_A.uvwa() == (2, 4, 0, 0)
    assert CASE_B.xyz() == (3, 3, 4, 4, 0, 0) and CASE_B.uvwa() == (0, 2, 2, 0)
    assert CASE_C.xyz() == (4, 2, 2, 6, 0, 0) and CASE_C.uvwa() == (0, 2, 2, 0)
    assert CASE_D.xyz() == (2, 1, 1, 3, 1, 1) and CASE_D.uvwa() == (2, 1, 1, 0)
    assert CASE_I.uvwa() == (4, 0, 0, 2)
    assert CASE_II.uvwa() == (2, 1, 1, 1)
    assert CASE_III.uvwa() == (4, 0, 0, 1)


def test_refined_lists_equal_known_cases():
    pr1 = profile((1, 3, 0), (1, 3, 0))
    prm = profile((1, 3, 0), (0, 0, 2))
    pr0 = profile((0, 0, 2), (0, 0, 2))
    assert set(cs.refine_p5(pr1, False)) == {CASE_A, CASE_B, CASE_C}
    assert set(cs.refine_p5(pr1, True)) == {CASE_I, CASE_II}
    assert set(cs.refine_p5(prm, False)) == {CASE_D}
    assert set(cs.refine_p5(prm, True)) == {CASE_III}
    assert set(cs.refine_p5(pr0, False)) == {CASE_BASE}
    assert cs.refine_p5(pr0, True) == ()


def test_relabeling_symmetry():
    # the residue swap of a refined candidate is again a refined candidate
    for case in (CASE_A, CASE_B, CASE_C, CASE_D):
        assert case.relabeled().canonical() == case.canonical()


def test_run_p5_survivors_and_labels():
    run = cs.run_p5()
    by_label = {c.cid: c.counts for c in run.candidates}
    assert by_label["a"] == CASE_A
    assert by_label["b"] == CASE_B
    assert by_label["c"] == CASE_C
    assert by_label["d"] == CASE_D
    assert by_label["i"] == CASE_I
    assert by_label["ii"] == CASE_II
    assert by_label["iii"] == CASE_III
    assert by_label["base"] == CASE_BASE
    assert run.survivors == ("c", "i", "iii")
    fang = {a.candidate_id: a.verdict for a in run.audits if a.filter_name == "fang"}
    assert fang == {"a": "ruled_out", "b": "ruled_out", "c": "survives",
                    "d": "ruled_out", "base": "survives", "i": "survives",
                    "ii": "ruled_out", "iii": "survives"}
    ks = {a.candidate_id: a.verdict for a in run.audits if a.filter_name == "ks_rochlin"}
    assert ks["c"] == "survives"
    assert run.structure["fourteen_points"] == ["c"]
    assert run.structure["sl2_core_family"] == ["base", "i", "iii"]


def test_group_tables():
    assert cs.group_defect(5, "1") == 4
    assert cs.group_defect(5, "3") == -8
    assert cs.group_defect(5, "4") == -4
    assert cs.group_defect(5, "A4~") == -20
    assert cs.group_defect(7, "1") == 10
    assert cs.group_defect(7, "2") == -8
    assert cs.group_defect(7, "3") == 2
    for k in (1, 2, 3, 4):
        assert cs.group_signature(5, "A4~", k).as_rational() == -5
        assert cs.group_spin(5, "A4~", k).is_zero()
    # exact rationality of the two-point group character
    for k in range(1, 7):
        assert cs.group_spin(7, "2", k).as_rational() == -1


def test_residue_sign_symmetry_justifies_class_reps():
    # every per-group filter input is invariant under k -> -k, so the class
    # representatives {1, 2, 3} exhaust the enumeration
    for p, types in ((5, ("1", "3", "4", "A4~")), (7, ("1", "2", "3"))):
        for typ in types:
            for k in range(1, (p + 1) // 2):
                assert cs.group_signature(p, typ, k) == cs.group_signature(p, typ, p - k)
                assert cs.group_spin(p, typ, k) == cs.group_spin(p, typ, p - k)


def test_delta2_delta3_pairing():
    # each two-point group value pairs with the doubled-class three-point
    # group value to exactly -1
    deltas = cs.delta_values()
    for k in (1, 2, 3):
        doubled = (2 * k) % 7
        doubled = min(doubled, 7 - doubled)
        total = deltas["2"][k] + deltas["3"][doubled]
        assert total.as_rational() == -1


def test_chain_group_bound_recorded():
    run = cs.run_p5()
    assert run.structure["max_chain_groups"] == 2


def test_order7_trace_bound():
    # a homologically nontrivial order-7 action forces middle-homology trace
    # exactly 8, hence a fixed set of Euler characteristic 10; one trivial
    # factor only raises it
    from k3census import gindex as gi
    both = cs.ThetaProfile.from_rts(7, (1, 1, 0), (1, 1, 0))
    assert both.lefschetz_total() - 2 == 8
    assert gi.lefschetz(both.lefschetz_total() - 2) == 10
    one = cs.ThetaProfile.from_rts(7, (1, 1, 0), (0, 8, 0))
    assert one.lefschetz_total() - 2 == 15
    # three isolated fixed points would need trace 1: impossible
    assert gi.lefschetz(8) > 3


def test_candidates_satisfy_averaged_signature():
    # the weak (averaged) signature identity, recomputed independently:
    # Sign(M/G) from the defect formula equals the t-dimension count
    run = cs.run_p5()
    from k3census import gindex as gi
    for c in run.candidates:
        data = c.counts.fixed_point_data()
        want = -(c.profile.first.fixed_rank() + c.profile.second.fixed_rank())
        assert gi.orbifold_signature(5, -16, data) == want


def test_p7_stage1_and_elimination():
    run = cs.solve_p7()
    assert run.stage1 == ((0, 2, 2), (1, 3, 1), (2, 4, 0))
    sig = {a.candidate_id: a.verdict for a in run.audits
           if a.filter_name == "exact_signature"}
    assert sig == {"uvw=0,2,2": "survives", "uvw=1,3,1": "ruled_out",
                   "uvw=2,4,0": "ruled_out"}
    assert run.structure["equal_k_forced"]
    assert run.structure["type3_class_is_doubled"]
    assert run.structure["points"] == {"(2k,3k)": 2, "(-k,-k)": 2,
                                       "(2k,4k)": 2, "(-2k,k)": 4}
    # every survivor uses one residue class; the three classes are the
    # generator relabelings of a single structure
    assert run.structure["k_examples"] == [1, 2, 3]
    # unequal-residue assignments died by the character test
    fang = [a for a in run.audits if a.filter_name == "fang"]
    assert {a.verdict for a in fang} == {"survives", "ruled_out"}
    for a in fang:
        if a.verdict == "ruled_out":
            assert a.detail.count("1") >= 4  # four odd entries in the vector


def test_p7_survivor_ids_are_unique_and_audited():
    run = cs.solve_p7()
    survivors = cs.report(run)["survivors"]
    assert len(survivors) == 3 and len(set(survivors)) == 3
    # each survivor is named exactly as its fang / furuta audits name it
    assert survivors == [a.candidate_id for a in run.audits
                         if a.filter_name == "furuta" and a.verdict == "survives"]
    assert survivors[0] == "uvw=0,2,2 k=((), (1, 1), (2, 2))"


def test_p7_tables_match_published_decimals():
    run = cs.solve_p7()
    assert run.delta_table == {
        "1": {1: "4.31194", 2: "0.63596", 3: "0.05210"},
        "2": {1: "-4.49396", 2: "-1.10992", 3: "1.60388"},
        "3": {1: "-2.60388", 2: "3.49396", 3: "0.10992"},
    }
    assert run.nu_table == {
        "2": {1: "-1.00000", 2: "-1.00000", 3: "-1.00000"},
        "3": {1: "-0.44504", 2: "-1.80194", 3: "1.24698"},
    }


def test_q8_fixture():
    fix = cs.q8_fixture_solver()
    assert fix.solutions == ((4, 0), (4, 2), (4, 4))
    assert fix.forced_fixed_points == 4
    assert fix.eliminations[8][0] is False
    assert fix.eliminations[6][0] is False
    assert fix.eliminations[4][0] is True


def test_involution_fixture():
    assert cs.involution_fixture_check([]).shape == "empty"
    assert cs.involution_fixture_check([(1, 0), (1, 0)]).shape == "two tori"
    v = cs.involution_fixture_check([(0, -2)] * 3 + [(1, 0)])
    assert v.shape == "spheres plus at most one torus"
    assert v.t_dimension == 13
    assert not cs.involution_fixture_check([(2, -2)]).admissible
    assert not cs.involution_fixture_check([(1, 0)] * 3).admissible
    assert not cs.involution_fixture_check([(0, -2), (1, 2)]).admissible
    assert not cs.involution_fixture_check([(0, -3)] * 2).admissible


def test_gamma_catalogue():
    g5 = cs.admissible_gamma_types(5)
    assert g5["A4~"][0] is True
    assert all(not ok for lbl, (ok, _) in g5.items() if lbl != "A4~")
    g7 = cs.admissible_gamma_types(7)
    assert all(not ok for ok, _ in g7.values())


def test_empty_run_reports_empty():
    run = cs.CensusRun(5, "census p5", (), (), (), (), (), {})
    rep = cs.report(run)
    assert rep["candidates"] == [] and rep["filters"] == [] \
        and rep["survivors"] == []
    assert json.loads(json.dumps(rep)) == rep


def test_reports_round_trip_and_deterministic():
    r1 = cs.report(cs.run_p5())
    r2 = cs.report(cs.run_p5())
    s1 = json.dumps(r1, sort_keys=True)
    assert s1 == json.dumps(r2, sort_keys=True)
    assert json.loads(s1) == r1
    for key in ("command", "inputs", "candidates", "filters", "survivors", "timings"):
        assert key in r1
    r7 = cs.report(cs.solve_p7())
    assert json.loads(json.dumps(r7)) == r7
