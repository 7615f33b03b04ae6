import random

import pytest

from k3census import e8, reps, sgnperm as sp
from k3census.reps import RepDecomp, lemma45_census, lift_summand
from k3census.sgnperm import SignedPerm
from conftest import signed_identity


def test_census_lists_match():
    # (r, t, s) displays
    assert [d.as_rts() for d in lemma45_census(7)] == [(1, 1, 0)]
    assert [d.as_rts() for d in lemma45_census(5)] == [(0, 0, 2), (1, 3, 0)]
    assert sorted(d.as_rts() for d in lemma45_census(3)) == \
        [(0, 0, 4), (1, 1, 2), (1, 5, 0), (2, 2, 0)]


def test_census_rejects_unsupported_prime():
    with pytest.raises(ValueError):
        lemma45_census(11)


def test_rep_decomp_invariants():
    d = RepDecomp(5, 1, 0, 3)
    assert d.rank() == 8 and d.trace() == 3 and d.fixed_rank() == 4
    with pytest.raises(ValueError):
        RepDecomp(5, -1, 0, 3)


def test_decompose_standard_cycles():
    assert reps.decompose_element(sp.std_cycle(5), 5).as_rts() == (1, 3, 0)
    assert reps.decompose_element(sp.std_cycle(7), 7).as_rts() == (1, 1, 0)


def test_decompose_order_mismatch_rejected():
    with pytest.raises(ValueError):
        reps.decompose_element(signed_identity(), 3)
    with pytest.raises(ValueError):
        reps.decompose_element(sp.std_cycle(5), 7)


def test_witnesses_realize_every_census_entry():
    for p in (3, 5, 7):
        for dec in lemma45_census(p):
            m = reps.coxeter_witness(p, (dec.r, dec.s, dec.t))
            assert m is not None, dec
            assert reps.decompose_matrix(m, p) == dec


def test_random_h_elements_stay_inside_census():
    # sample 10^4 elements of H per prime; every order-p hit must decompose
    # to a census entry (the subgroup realizes only the regular-type slice)
    rng = random.Random(314)
    seen = {3: set(), 5: set(), 7: set()}
    hits = 0
    for p in (3, 5, 7):
        for _ in range(10_000):
            perm = list(range(8))
            rng.shuffle(perm)
            eps = [rng.choice((1, -1)) for _ in range(8)]
            if eps.count(-1) % 2:
                eps[0] = -eps[0]
            g = SignedPerm.from_eps_perm(tuple(eps), tuple(perm))
            if g.order() != p:
                continue
            hits += 1
            dec = reps.decompose_element(g, p)
            assert dec in lemma45_census(p)
            seen[p].add(dec.as_rts())
    assert hits > 100
    assert seen[5] == {(1, 3, 0)}
    assert seen[7] == {(1, 1, 0)}
    assert seen[3] <= {(1, 5, 0), (2, 2, 0)} and seen[3]


def test_lift_no_lift_on_rank_two_example():
    res = lift_summand([[1, 1], [0, -1]], [[1, 0]], [0, 1])
    assert res.kind == "cyclotomic" and not res.lifted


def test_lift_trivial_and_regular():
    triv = lift_summand([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [[1, 0, 0]], [0, 0, 1])
    assert triv.lifted and triv.kind == "trivial"
    assert triv.generators == ((0, 0, 1),)
    reg = lift_summand([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[1, 0, 0]], [0, 1, 0])
    assert reg.lifted and reg.kind == "regular"
    assert len(reg.generators) == 2
    ident = lift_summand([[1, 0], [0, 1]], [[1, 0]], [0, 1])
    assert ident.lifted and ident.kind == "trivial"


def test_lift_from_a_spanning_set_matches_the_basis():
    # U = <e1> is spanned by 2 e1 and 3 e1, which are no basis of U; the
    # membership test must ask for any integer combination, not read one
    # rational solution
    for action, gen in (([[1, 1], [0, -1]], [0, 1]),
                        ([[1, 0, 0], [0, -1, 0], [0, 0, 1]], [0, 0, 1]),
                        ([[1, 0, 0], [0, 0, 1], [0, 1, 0]], [0, 1, 0])):
        pad = [0] * (len(action) - 1)
        basis = [[1] + pad]
        spanning = [[2] + pad, [3] + pad]
        assert lift_summand(action, spanning, gen) == lift_summand(action, basis, gen)


def test_lift_kind_override_and_validation():
    # asking for a fixed lift of a genuinely cyclotomic summand fails too
    res = lift_summand([[1, 1], [0, -1]], [[1, 0]], [0, 1], kind="trivial")
    assert not res.lifted
    with pytest.raises(ValueError):
        lift_summand([[1, 1], [0, -1]], [[0, 1]], [1, 0])  # <y> is not invariant


def test_lift_cyclotomic_success():
    # block sum: honest cyclotomic summand orthogonal to the sublattice
    action = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    res = lift_summand(action, [[0, 0, 1]], [0, 1, 0])
    assert res.kind == "cyclotomic" and res.lifted


def test_lift_cyclotomic_needs_the_order_on_the_lattice():
    # g rotates U = <e1, e2> by a quarter turn and acts as -1 on L/U = <e3>:
    # the quotient orbit closes after 2 steps, but g^2 = -1 on U, so the
    # norm relation 1 + g is no cyclotomic condition; a failure value, no error
    action = [[0, -1, 1], [1, 0, 0], [0, 0, -1]]
    res = lift_summand(action, [[1, 0, 0], [0, 1, 0]], [0, 0, 1])
    if res.kind != "cyclotomic" or res.lifted:
        pytest.fail("expected a failed cyclotomic lift, got %r" % (res,))
    if res.reason != "the action does not have order 2 on the lattice":
        pytest.fail("reason %r" % (res.reason,))


def test_charpoly_crosscheck_holds_on_witnesses():
    # decompose_matrix already asserts (x^p-1)^r Phi_p^s (x-1)^t internally;
    # run it over the full witness set once more for visibility
    for p in (3, 5, 7):
        for dec in lemma45_census(p):
            m = reps.coxeter_witness(p, (dec.r, dec.s, dec.t))
            reps.decompose_matrix(m, p)
