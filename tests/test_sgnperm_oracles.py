"""Plain reference versions of the signed-permutation scans, kept here and
nowhere in the package.  Each pins a fast kernel of sgnperm to the direct
search it replaces, so every scan stays exhaustive and every reported
witness stays the same."""

import random
from itertools import permutations, product

import pytest

from k3census import e8, sgnperm as sp
from k3census.sgnperm import SignedPerm

D0 = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
PPERM = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])


def rand_element(rng) -> SignedPerm:
    perm = list(range(8))
    rng.shuffle(perm)
    eps = [rng.choice((1, -1)) for _ in range(8)]
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return SignedPerm.from_eps_perm(tuple(eps), tuple(perm))


def reference_square_roots(c):
    """Filter all 8! permutations for p(p(i)) = pi_c(i), then try every sign
    vector of H on each survivor."""
    target = c.perm()
    out = []
    for perm in permutations(range(8)):
        if any(perm[perm[i]] != target[i] for i in range(8)):
            continue
        for eps in product((1, -1), repeat=8):
            if eps.count(-1) % 2 == 0:
                v = SignedPerm.from_eps_perm(eps, perm)
                if v * v == c:
                    out.append(v)
    return tuple(sorted(out, key=lambda v: v.image))


def reference_parity_witness(v):
    """First root, in enumerate_roots order, whose pairing with its image is
    odd, through the lattice action and the exact pairing."""
    for r in e8.enumerate_roots():
        if e8.raw_inner(v.apply_doubled(r.d), r.d) % 2:
            return r
    return None


def reference_is_4a_prime_shape(v):
    """The shape test stated through the signed cycle decomposition."""
    if not (v != SignedPerm.identity() and v * v == SignedPerm.identity()):
        return False
    two_cycles = [c for c, _ in v.signed_cycles() if len(c) == 2]
    eps, p = v.eps(), v.perm()
    if any(eps[i] != eps[p[i]] for i in range(8)):
        return False
    neg = eps.count(-1)
    if not two_cycles:
        return neg == 4
    return len(two_cycles) == 4 and neg % 4 == 0


def test_square_roots_match_reference_filter():
    assert sp.square_roots(D0) == reference_square_roots(D0)
    assert len(sp.square_roots(D0)) == 528
    assert sp.square_roots(PPERM) == reference_square_roots(PPERM)
    assert len(sp.square_roots(PPERM)) == 48
    rng = random.Random(2718)
    for _ in range(10):
        g = rand_element(rng)
        c = g * g
        roots = sp.square_roots(c)
        assert g in roots
        assert roots == reference_square_roots(c)


def test_square_roots_of_a_non_square_is_empty():
    # a 3-cycle times a transposition: the transposition has no square root
    c = SignedPerm.from_cycles([(1, 2, 3), (4, 5)])
    assert sp.square_roots(c) == reference_square_roots(c) == ()


def test_parity_witness_matches_reference_on_every_involution():
    n = 0
    for v in sp.all_involutions():
        n += 1
        assert sp.parity_witness(v) == reference_parity_witness(v), v
    assert n == 17038


def test_parity_witness_matches_reference_on_random_elements():
    rng = random.Random(1618)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.parity_witness(v) == reference_parity_witness(v), v
    for v in (SignedPerm.identity(), SignedPerm.minus_one()):
        assert sp.parity_witness(v) == reference_parity_witness(v)


def test_4a_prime_shape_matches_reference():
    for v in sp.all_involutions():
        assert sp.is_4a_prime_shape(v) == reference_is_4a_prime_shape(v), v
    rng = random.Random(1414)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.is_4a_prime_shape(v) == reference_is_4a_prime_shape(v), v


def test_four_a_prime_elements_match_shape_filter():
    want = sorted((v for v in sp.all_involutions() if sp.is_4a_prime_shape(v)),
                  key=lambda v: v.image)
    assert sp.four_a_prime_elements() == tuple(want)
    assert len(want) == 910


def test_q8_pair_criterion_matches_conjugation():
    # for a^2 = b^2 = c: b a b^-1 = a^-1 exactly when (ab)^2 = c
    roots_p = sp.square_roots(PPERM)
    roots_d = sp.square_roots(D0)
    rng = random.Random(4)
    pairs = [(a, b) for a in roots_p for b in roots_p]
    pairs += [(a, b) for a in rng.sample(roots_d, 16) for b in roots_d]
    seen = set()
    for a, b in pairs:
        by_square = (a * b) * (a * b) == a * a
        by_conjugation = b * a * b.inverse() == a.inverse()
        assert by_square == by_conjugation, (a, b)
        seen.add(by_square)
    assert seen == {True, False}


def test_z2_4_budget_threshold_is_exact():
    # the full search charges exactly 177936 units
    assert sp.search_z2_4_obstruction(177936).max_all_even_rank == 3
    with pytest.raises(sp.SearchBudgetExceeded):
        sp.search_z2_4_obstruction(177935)
