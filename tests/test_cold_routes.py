"""Each cold-path route of the census and of Lemma 4.5 against the route it
replaced, on every case the package computes:

* the Galois-conjugated delta and nu columns against direct point sums,
  for all 17 (p, type, k);
* the packed refinement against the tuple-by-tuple one, on all 15 stage-1
  solutions of p = 5 and p = 7;
* the charpoly decompose_matrix takes from Newton's identities on the
  power traces against Faddeev-LeVerrier (list_charpoly), on the 7
  Lemma 4.5 witnesses and on every order-3, -5 and -7 class representative
  of H;
* each candidate's Dirac character, summed over its groups, against
  gindex.spin_value on its whole fixed set, and the audit text built from
  it.
"""

from itertools import combinations_with_replacement, product

import pytest

from k3census import census, e8, gindex, linalg, reps, sgnperm as sp
from k3census.cyclotomic import CycNum
from test_linalg_oracles import list_charpoly


def table_cases():
    return [(p, typ, k) for p, types in census.GROUP_TYPES.items() for typ in types
            for k in range(1, (p + 1) // 2)]


def test_there_are_17_table_cases():
    assert len(table_cases()) == 17


@pytest.mark.parametrize("p,typ,k", table_cases())
def test_galois_columns_match_direct_point_sums(p, typ, k):
    for table, direct in ((census.delta_values(p), census.group_signature(p, typ, k)),
                          (census.nu_values(p), census.group_spin(p, typ, k))):
        got = table[typ][k]
        # the same canonical element, so the same repr and decimal in every report
        assert got == direct
        assert (got.n, got._num, got._den) == (direct.n, direct._num, direct._den)


def tuple_refine(profile, counts):
    """refine() as it was: per-type signature vectors built and added tuple
    by tuple, every assignment in the product scanned."""
    p = profile.p
    den, vectors = census.delta_coordinates(p)
    zero = (0,) * (p - 1)
    target = (profile.sign_target() * den,) + zero[1:]
    per_type = []
    for typ, n in zip(census.GROUP_TYPES[p], counts):
        ks = combinations_with_replacement(census.group_residues(p, typ), n)
        per_type.append([(combo, tuple(map(sum, zip(zero, *(vectors[typ][k] for k in combo)))))
                         for combo in ks])
    found = set()
    for choice in product(*per_type):
        if tuple(map(sum, zip(*(value for _, value in choice)))) == target:
            res = tuple(combo for combo, _ in choice)
            found.add(min(census.relabel(p, res, c) for c in range(1, (p + 1) // 2)))
    return tuple(sorted(found))


def stage1_solutions():
    return [(pr, counts) for p in census.GROUP_TYPES for pr in census.nontrivial_profiles(p)
            for counts in census.stage1(pr)]


def test_packed_refinement_matches_tuple_refinement():
    solutions = stage1_solutions()
    assert len(solutions) == 15
    found = 0
    for pr, counts in solutions:
        got = census.refine(pr, counts)
        assert got == tuple_refine(pr, counts), (pr.label(), counts)
        found += len(got)
    assert found == 10  # the candidates of census p5 (8) and census p7 (2)


def newton_and_leverrier(m, p):
    """The charpoly decompose_matrix(m, p) computes from Newton's identities,
    captured on its way, and Faddeev-LeVerrier on m's lists of rows."""
    seen = []
    genuine = linalg.charpoly_from_traces

    def recording(traces):
        seen.append(genuine(traces))
        return seen[-1]

    linalg.charpoly_from_traces = recording
    try:
        reps.decompose_matrix(m, p)
    finally:
        linalg.charpoly_from_traces = genuine
    assert len(seen) == 1
    return seen[0], list_charpoly(m)


def test_newton_charpoly_matches_leverrier_on_the_witnesses():
    witnesses = [(p, reps.coxeter_witness(p, (d.r, d.s, d.t)))
                 for p in (3, 5, 7) for d in reps.lemma45_census(p)]
    assert len(witnesses) == 7
    for p, m in witnesses:
        newton, leverrier = newton_and_leverrier(m, p)
        assert newton == leverrier, (p, m)


def test_newton_charpoly_matches_leverrier_on_class_representatives():
    reps_by_order = {}
    for _, rep, _ in sp.class_table():
        if rep.order() in (3, 5, 7):
            reps_by_order.setdefault(rep.order(), []).append(rep)
    assert sorted(reps_by_order) == [3, 5, 7]
    for p, elements in reps_by_order.items():
        for g in elements:
            newton, leverrier = newton_and_leverrier(e8.matrix_in_f_basis(g.matrix_e()), p)
            assert newton == leverrier == list(g.charpoly()), g


@pytest.mark.parametrize("p", sorted(census.GROUP_TYPES))
def test_group_sums_match_spin_value_on_every_candidate(p):
    run = census.run_census(p)
    nu = census.nu_values(p)
    fang = {a.candidate_id: a.detail for a in run.audits if a.filter_name == "fang"}
    assert run.candidates and set(fang) == {c.cid for c in run.candidates}
    for c in run.candidates:
        summed = sum((nu[t][k] for t, ks in zip(census.GROUP_TYPES[p], c.residues) for k in ks),
                     CycNum.rational(0))
        direct = gindex.spin_value(c.fixed_point_data())
        assert summed == direct and summed.n == direct.n, c.cid
        assert fang[c.cid].startswith("spin=%r (" % (direct,)), c.cid
