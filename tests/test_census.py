import json
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from k3census import census as cs
from k3census import gindex as gi
from k3census.census import Candidate
from k3census.cyclotomic import CycNum
from k3census.errors import CheckFailure
from conftest import is_degenerate, profile_from_rts


def profile(rts1, rts2, p=5):
    return profile_from_rts(p, rts1, rts2)


PR1 = profile((1, 3, 0), (1, 3, 0))
PRM = profile((1, 3, 0), (0, 0, 2))
PR0 = profile((0, 0, 2), (0, 0, 2))
PR7 = profile((1, 1, 0), (1, 1, 0), p=7)


def family(u0, v0):
    """The p = 5 closed form (u, v, w, A) = (u0 - w + A, v0 - w - 2A, w, A)."""
    return {(u0 - w + a, v0 - w - 2 * a, w, a) for w in range(v0 + 1) for a in range(v0 + 1)
            if u0 - w + a >= 0 and v0 - w - 2 * a >= 0}


def uvwa(res):
    return tuple(len(ks) for ks in res)


def xyz(res):
    """Point counts of the p = 5 point groups by residue class: x for the
    (k, k) points, y for (k, 2k), z for (k, -k), subscript 1 for k = +-1 and
    2 for k = +-2; chain-group points are not counted."""
    (z, v, w, _) = res
    v1, v2, w1, w2 = v.count(1), v.count(2), w.count(1), w.count(2)
    return (2 * v1 + w1, 2 * v2 + w2, v1 + 3 * w1, v2 + 3 * w2, z.count(1), z.count(2))


def test_theta_profile_validation():
    with pytest.raises(ValueError):
        profile_from_rts(5, (1, 1, 0), (1, 3, 0))
    pr = profile((1, 3, 0), (0, 0, 2))
    assert pr.sign_target() == -1
    assert pr.lefschetz_total() == 9
    assert pr.quotient_b2minus() == 7
    assert pr.max_tori() == 1
    assert not is_degenerate(pr)


def test_degenerate_profile_accepted_and_flagged():
    pr = profile((1, 3, 0), (0, 8, 0))
    assert is_degenerate(pr)
    # the linear system still solves; the flag, not the solver, records the
    # hypothesis failure
    assert cs.stage1(pr)
    assert all(not is_degenerate(p) for p in cs.nontrivial_profiles(5))


def test_stage1_families_match_closed_forms():
    # the generic solver over GROUP_TYPES reproduces the paper's families
    assert set(cs.stage1(PR1)) == family(2, 4)
    assert set(cs.stage1(PRM)) == family(3, 2)
    assert cs.stage1(PR0) == ((4, 0, 0, 0),)
    assert cs.stage1(PR7) == ((0, 2, 2), (1, 3, 1), (2, 4, 0))
    for pr in (PR1, PRM, PR0, PR7):
        assert list(cs.stage1(pr)) == sorted(cs.stage1(pr))


# residues per type ("1", "3", "4", "A4~")
CASE_A = ((1, 2), (1, 1, 2, 2), (), ())
CASE_B = ((), (1, 2), (1, 2), ())
CASE_C = ((), (1, 1), (2, 2), ())
CASE_D = ((1, 2), (1,), (2,), ())
CASE_I = ((1, 1, 2, 2), (), (), (1, 1))
CASE_II = ((1, 2), (1,), (2,), (1,))
CASE_III = ((1, 1, 2, 2), (), (), (1,))
CASE_BASE = ((1, 1, 2, 2), (), (), ())


def test_case_tuples_read_back_correctly():
    assert xyz(CASE_A) == (4, 4, 2, 2, 1, 1) and uvwa(CASE_A) == (2, 4, 0, 0)
    assert xyz(CASE_B) == (3, 3, 4, 4, 0, 0) and uvwa(CASE_B) == (0, 2, 2, 0)
    assert xyz(CASE_C) == (4, 2, 2, 6, 0, 0) and uvwa(CASE_C) == (0, 2, 2, 0)
    assert xyz(CASE_D) == (2, 1, 1, 3, 1, 1) and uvwa(CASE_D) == (2, 1, 1, 0)
    assert uvwa(CASE_I) == (4, 0, 0, 2)
    assert uvwa(CASE_II) == (2, 1, 1, 1)
    assert uvwa(CASE_III) == (4, 0, 0, 1)
    assert xyz(CASE_I) == xyz(CASE_III) == xyz(CASE_BASE) == (0, 0, 0, 0, 2, 2)
    assert xyz(CASE_II) == (2, 1, 1, 3, 1, 1)
    cand = Candidate("a", PR1, CASE_A)
    assert cand.counts() == (2, 4, 0, 0) and cand.chain_groups() == 0
    assert Candidate("i", PR1, CASE_I).chain_groups() == 2
    # xyz leaves out the three isolated points of each chain group
    assert len(Candidate("i", PR1, CASE_I).fixed_point_data().isolated) == 4 + 2 * 3


def refined(pr, chained):
    return {res for n in cs.stage1(pr) if (cs.chain_groups(5, n) > 0) == chained
            for res in cs.refine(pr, n)}


def test_refined_lists_equal_known_cases():
    assert refined(PR1, False) == {CASE_A, CASE_B, CASE_C}
    assert refined(PR1, True) == {CASE_I, CASE_II}
    assert refined(PRM, False) == {CASE_D}
    assert refined(PRM, True) == {CASE_III}
    assert refined(PR0, False) == {CASE_BASE}
    assert refined(PR0, True) == set()


def reference_refine(pr, counts):
    """refine() with the signatures summed as CycNums: the reference for its
    integer coordinates."""
    p, deltas, found = pr.p, cs.delta_values(pr.p), set()
    per_type = [list(combinations_with_replacement(cs.group_residues(p, t), n))
                for t, n in zip(cs.GROUP_TYPES[p], counts)]
    for res in product(*per_type):
        total = sum((deltas[t][k] for t, ks in zip(cs.GROUP_TYPES[p], res) for k in ks),
                    CycNum.rational(0))
        if total == pr.sign_target():
            found.add(min(cs.relabel(p, res, c) for c in range(1, (p + 1) // 2)))
    return tuple(sorted(found))


@pytest.mark.parametrize("p", [5, 7])
def test_refine_matches_cycnum_sums(p):
    for pr in cs.nontrivial_profiles(p):
        for counts in cs.stage1(pr):
            assert cs.refine(pr, counts) == reference_refine(pr, counts), (pr, counts)
    # the integer vectors are the CycNum coordinates of the table
    den, vectors = cs.delta_coordinates(p)
    for typ, per in cs.delta_values(p).items():
        for k, value in per.items():
            assert CycNum(p, [Fraction(x, den) for x in vectors[typ][k]]) == value


def test_relabeling_symmetry():
    # the residue swap of a refined candidate is again an exact solution,
    # and the kept representative is the smaller of the two
    for pr, case in ((PR1, CASE_A), (PR1, CASE_B), (PR1, CASE_C), (PRM, CASE_D),
                     (PR1, CASE_II)):
        swapped = cs.relabel(5, case, 2)
        assert cs.relabel(5, swapped, 2) == case
        assert min(case, swapped) == case
        data = Candidate("x", pr, swapped).fixed_point_data()
        assert gi.signature_g(data).as_rational() == pr.sign_target()
    # chain groups stay at k = 1
    assert cs.relabel(5, CASE_I, 2)[3] == (1, 1)


def test_run_p5_survivors_and_labels():
    run = cs.run_p5()
    by_label = {c.cid: c.residues for c in run.candidates}
    assert by_label == {"a": CASE_A, "b": CASE_B, "c": CASE_C, "d": CASE_D, "base": CASE_BASE,
                        "i": CASE_I, "ii": CASE_II, "iii": CASE_III}
    assert [c.cid for c in run.candidates] == ["a", "b", "c", "d", "base", "i", "ii", "iii"]
    assert run.survivors == ("c", "i", "iii")
    fang = {a.candidate_id: a.verdict for a in run.audits if a.filter_name == "fang"}
    assert fang == {"a": "ruled_out", "b": "ruled_out", "c": "survives",
                    "d": "ruled_out", "base": "survives", "i": "survives",
                    "ii": "ruled_out", "iii": "survives"}
    furuta = {a.candidate_id: a.verdict for a in run.audits if a.filter_name == "furuta"}
    assert furuta == dict.fromkeys(fang, "survives")
    ks = {a.candidate_id: a.verdict for a in run.audits if a.filter_name == "ks_rochlin"}
    assert ks == {"a": "not_applicable", "b": "not_applicable", "c": "survives",
                  "d": "not_applicable", "base": "survives", "i": "not_applicable",
                  "ii": "not_applicable", "iii": "not_applicable"}
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
    deltas = cs.delta_values(7)
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
    both = profile_from_rts(7, (1, 1, 0), (1, 1, 0))
    assert both.lefschetz_total() - 2 == 8
    assert gi.lefschetz(both.lefschetz_total() - 2) == 10
    one = profile_from_rts(7, (1, 1, 0), (0, 8, 0))
    assert one.lefschetz_total() - 2 == 15
    # three isolated fixed points would need trace 1: impossible
    assert gi.lefschetz(8) > 3


def test_candidates_satisfy_averaged_signature():
    # the weak (averaged) signature identity, recomputed independently:
    # Sign(M/G) from the defect formula equals the t-dimension count
    for run in (cs.run_p5(), cs.solve_p7()):
        for c in run.candidates:
            data = c.fixed_point_data()
            want = -(c.profile.first.fixed_rank() + c.profile.second.fixed_rank())
            assert gi.orbifold_signature(run.p, -16, data) == want
            assert data.euler_characteristic() == c.profile.lefschetz_total()


def test_p7_stage1_and_elimination():
    run = cs.solve_p7()
    assert run.stage1 == ((PR7, ((0, 2, 2), (1, 3, 1), (2, 4, 0))),)
    sig = {a.candidate_id: a.verdict for a in run.audits
           if a.filter_name == "exact_signature"}
    assert sig == {"(1,1,0)x(1,1,0) n=0,2,2": "survives",
                   "(1,1,0)x(1,1,0) n=1,3,1": "ruled_out",
                   "(1,1,0)x(1,1,0) n=2,4,0": "ruled_out"}
    assert run.structure["equal_k_forced"]
    assert run.structure["type3_class_is_doubled"]
    assert run.structure["points"] == {"(2k,3k)": 2, "(-k,-k)": 2,
                                       "(2k,4k)": 2, "(-2k,k)": 4}
    # the two relabelling orbits of exact solutions, one representative each
    assert {c.residues for c in run.candidates} == {((), (1, 1), (2, 2)),
                                                    ((), (1, 2), (2, 3))}
    # the survivor's relabellings are the three equal-residue structures,
    # whose classes are the k_examples
    (survivor,) = [c for c in run.candidates if c.cid in run.survivors]
    orbit = {cs.relabel(7, survivor.residues, c) for c in (1, 2, 3)}
    assert orbit == {((), (1, 1), (2, 2)), ((), (2, 2), (3, 3)), ((), (3, 3), (1, 1))}
    assert run.structure["k_examples"] == [1, 2, 3]
    # the unequal-residue orbit is exact too, and its relabellings as well
    for c in (1, 2, 3):
        res = cs.relabel(7, ((), (1, 2), (2, 3)), c)
        data = Candidate("x", PR7, res).fixed_point_data()
        assert gi.signature_g(data).as_rational() == -2
    # unequal-residue assignments died by the character test: four odd
    # entries in the vector
    fang = [a for a in run.audits if a.filter_name == "fang"]
    assert {a.verdict for a in fang} == {"survives", "ruled_out"}
    for a in fang:
        if a.verdict == "ruled_out":
            d = a.detail.split("d=")[1].strip("()").split(", ")
            assert sum(int(x) % 2 for x in d) == 4


def test_p7_survivor_ids_are_unique_and_audited():
    run = cs.solve_p7()
    rep = cs.report(run)
    ids = [c["id"] for c in rep["candidates"]]
    assert len(ids) == len(set(ids)) == 2
    assert rep["survivors"] == ["(1,1,0)x(1,1,0) n=0,2,2 k=((), (1, 1), (2, 2))"]
    # the survivor is named exactly as its fang / furuta / KS audits name it
    passed = {(a.candidate_id, a.filter_name) for a in run.audits if a.verdict == "survives"}
    assert all((rep["survivors"][0], name) in passed for name in cs.FILTERS)


def test_p7_tables_match_published_decimals():
    rep = cs.report(cs.solve_p7())
    assert rep["delta_table"] == {
        "1": {"1": "4.31194", "2": "0.63596", "3": "0.05210"},
        "2": {"1": "-4.49396", "2": "-1.10992", "3": "1.60388"},
        "3": {"1": "-2.60388", "2": "3.49396", "3": "0.10992"},
    }
    assert {t: rep["nu_table"][t] for t in ("2", "3")} == {
        "2": {"1": "-1.00000", "2": "-1.00000", "3": "-1.00000"},
        "3": {"1": "-0.44504", "2": "-1.80194", "3": "1.24698"},
    }


def test_ks_filter_runs_for_both_primes():
    # derived Rochlin values: every pseudofree candidate the smooth filters
    # leave alive gets a KS verdict, none is skipped
    base = {a.candidate_id: a for a in cs.run_p5().audits if a.filter_name == "ks_rochlin"}
    assert base["base"].detail == "Sign(N)=0, boundary=[(5, 4), (5, 4), (5, 4), (5, 4)], ks=0"
    assert base["i"].detail == "not pseudofree (fixed surfaces: 2)"
    assert base["a"].detail == "ruled out by fang"
    run7 = cs.solve_p7()
    (survivor,) = [c for c in run7.candidates if c.cid in run7.survivors]
    (ks,) = [a for a in run7.audits
             if a.filter_name == "ks_rochlin" and a.candidate_id == survivor.cid]
    assert ks.verdict == "survives" and ks.detail.startswith("Sign(N)=-4,")
    lens = [gi.lens_space(7, a, b) for a, b in survivor.fixed_point_data().isolated]
    assert sum(gi.rochlin(p, q) for p, q in lens) == 52


@pytest.mark.parametrize("p", [5, 7])
def test_census_verdicts_are_survives_ruled_out_or_not_applicable(p):
    # every candidate gets one verdict from each filter; only KS may find
    # itself not applicable
    run = cs.run_census(p)
    rep = cs.report(run)
    verdicts = {(f["filter"], f["verdict"]) for f in rep["filters"]}
    assert {v for _, v in verdicts} <= {"survives", "ruled_out", "not_applicable"}
    assert {f for f, v in verdicts if v == "not_applicable"} == {"ks_rochlin"}
    assert set(rep["stats"]["audits"]) == {"exact_signature", *cs.FILTERS}
    for name in cs.FILTERS:
        assert sorted(a.candidate_id for a in run.audits if a.filter_name == name) \
            == sorted(c.cid for c in run.candidates)


def drop_ks_audit(cid):
    """census._filter with the KS audit of candidate cid left out."""
    genuine = cs._filter

    def broken(cand, digits, audits):
        genuine(cand, digits, audits)
        if cand.cid == cid:
            audits.pop()
    return broken


@pytest.mark.parametrize("cid", ["c", "i"])
def test_missing_ks_audit_raises(monkeypatch, cid):
    # "c" is pseudofree and "i" is not; both reach the KS filter alive
    monkeypatch.setattr(cs, "_filter", drop_ks_audit(cid))
    with pytest.raises(CheckFailure, match="candidate %s has no ks_rochlin verdict" % cid):
        cs.run_p5()


def test_missing_ks_audit_fails_under_optimized_python(run_optimized):
    res = run_optimized("-c", "import sys\n"
                        "from k3census import census as cs, cli\n"
                        "genuine = cs._filter\n"
                        "def broken(cand, digits, audits):\n"
                        "    genuine(cand, digits, audits)\n"
                        "    if cand.cid == 'i':\n"
                        "        audits.pop()\n"
                        "cs._filter = broken\n"
                        "sys.exit(cli.main(['census', 'p5']))")
    if res.returncode != 1 or res.stdout or "Traceback" in res.stderr:
        pytest.fail("exit %r, output %r / %r" % (res.returncode, res.stdout, res.stderr))
    if "candidate i has no ks_rochlin verdict" not in res.stderr:
        pytest.fail("the failure is not the missing audit: %r" % res.stderr)


def test_stats_count_every_stage():
    s5, s7 = cs.run_p5().stats, cs.solve_p7().stats
    assert s5 == {
        "stage1": {"in": 3, "out": 12},
        "refinement": {"in": 12, "assignments": 115, "out": 8},
        "fang": {"in": 8, "out": 4},
        "furuta": {"in": 4, "out": 4},
        "ks_rochlin": {"in": 4, "out": 4},
        "audits": {"exact_signature": {"survives": 7, "ruled_out": 5},
                   "fang": {"survives": 4, "ruled_out": 4},
                   "furuta": {"survives": 8, "ruled_out": 0},
                   "ks_rochlin": {"survives": 2, "ruled_out": 0, "not_applicable": 6}},
    }
    assert s7["refinement"] == {"in": 3, "assignments": 216, "out": 2}
    assert s7["ks_rochlin"] == {"in": 1, "out": 1}
    for run in (cs.run_p5(), cs.solve_p7()):
        tally = {}
        for a in run.audits:
            tally[(a.filter_name, a.verdict)] = tally.get((a.filter_name, a.verdict), 0) + 1
        assert {(f, v): n for f, per in run.stats["audits"].items()
                for v, n in per.items() if n} == tally


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
    # the census takes its chain types from the same catalogue
    for p in (5, 7):
        chains = {t for t, spec in cs.GROUP_TYPES[p].items() if spec["surfaces"]}
        assert chains == {lbl for lbl, (ok, _) in cs.admissible_gamma_types(p).items() if ok}


def test_empty_run_reports_empty():
    run = cs.CensusRun(5, 5, (), (), (), (), {}, {})
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
    for key in ("command", "inputs", "stage1", "candidates", "filters", "survivors",
                "stats", "timings"):
        assert key in r1
    r7 = cs.report(cs.solve_p7())
    assert json.loads(json.dumps(r7)) == r7
