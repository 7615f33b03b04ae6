"""Plain reference versions of the signed-permutation scans, kept here and
nowhere in the package.  Each pins a fast kernel of sgnperm to the direct
search it replaces, so every scan stays exhaustive and every reported
witness stays the same."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import lcm

import pytest

from k3census import sgnperm as sp
from k3census.errors import CheckFailure
from k3census.sgnperm import Q8Report, SignedPerm, Z24Report
from conftest import (matchings, rand_element, reference_parity_witness, reference_shape,
                      reference_signed_cycles, reference_trace, seeded_elements,
                      signed_cycle_type_representatives, signed_identity, tuple_product)
from test_linalg_oracles import list_charpoly

D0 = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
PPERM = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])


@lru_cache(maxsize=None)
def permutations_by_square():
    """All 8! permutations of range(8), grouped by their square p(p(i))."""
    out = {}
    for perm in permutations(range(8)):
        out.setdefault(tuple(perm[j] for j in perm), []).append(perm)
    return out


def reference_square_roots(c):
    """Filter all 8! permutations for p(p(i)) = pi_c(i), then try every sign
    vector of H on each survivor, squaring image tuples."""
    out = []
    for perm in permutations_by_square().get(c.perm(), ()):
        for eps in product((1, -1), repeat=8):
            if eps.count(-1) % 2 == 0:
                image = tuple(eps[j] * (j + 1) for j in perm)
                if tuple_product(image, image) == c.image:
                    out.append(image)
    return tuple(SignedPerm(image) for image in sorted(out))


def reference_order(v):
    return lcm(*(len(c) if s == 1 else 2 * len(c) for c, s in reference_signed_cycles(v)))


def reference_search_z2_4(budget=20_000_000):
    """The (Z2)^4 search multiplying image tuples afresh for every product,
    with the same traversal and the same charges."""
    atoms = [v.image for v in sp.four_a_prime_elements()]
    atom_set = set(atoms)
    ident = signed_identity().image
    counter = [0]

    def charge(n=1):
        counter[0] += n
        if counter[0] > budget:
            raise sp.SearchBudgetExceeded("budget %d exhausted" % budget)

    def closed_extension(subgroup, h):
        new = []
        for g in subgroup:
            charge()
            p = tuple_product(g, h)
            if p == ident or p not in atom_set:
                return None
            new.append(p)
        return new

    max_rank = 0
    best_pair = None

    def grow(subgroup, gens, pool):
        nonlocal max_rank, best_pair
        max_rank = max(max_rank, len(gens))
        if len(gens) == 2 and best_pair is None:
            best_pair = (gens[0], gens[1])
        if len(gens) == 4:
            raise CheckFailure("found an all-even-pairing (Z2)^4: %r" % (gens,))
        for idx, h in enumerate(pool):
            new_elts = closed_extension(subgroup, h)
            if new_elts is None:
                continue
            pool2 = []
            for h2 in pool[idx + 1:]:
                charge(len(new_elts))
                if all(tuple_product(h2, g) == tuple_product(g, h2) for g in new_elts):
                    pool2.append(h2)
            grow(subgroup + new_elts, gens + [h], pool2)

    for g1 in (D0.image, PPERM.image):
        assert g1 in atom_set
        level1 = []
        for h in atoms:
            if h == g1:
                continue
            charge()
            if tuple_product(g1, h) != tuple_product(h, g1):
                continue
            if closed_extension([g1], h) is not None:
                level1.append(h)
        grow([ident, g1], [g1], level1)

    return Z24Report(Fraction(1, 2), "no (Z2)^4 with all involutions of even-pairing type",
                     max_rank, (SignedPerm(best_pair[0]), SignedPerm(best_pair[1])),
                     counter[0])


def reference_q8_pairs(roots):
    """Index pairs (i, j) with roots[i] * roots[j] again in roots, by one
    tuple product and one lookup per pair."""
    images = [v.image for v in roots]
    found = set(images)
    return {(i, j) for i, a in enumerate(images) for j, b in enumerate(images)
            if tuple_product(a, b) in found}


def reference_search_q8(budget=4_000_000):
    """The quaternion-pair search testing every pair by a tuple product."""
    triples, traces, steps = set(), set(), 0
    for c in (D0, PPERM):
        trace_of = {v.image: v.trace() for v in sp.square_roots(c)}
        traces.update(trace_of.values())
        for a, tr_a in trace_of.items():
            steps += len(trace_of)
            if steps > budget:
                raise sp.SearchBudgetExceeded("budget %d exhausted" % budget)
            for b, tr_b in trace_of.items():
                tr_ab = trace_of.get(tuple_product(a, b))
                if tr_ab is not None:
                    triples.add((tr_a, tr_b, tr_ab))
    assert not [(t1, t2) for t1 in triples for t2 in triples
                if tuple(x + y for x, y in zip(t1, t2)) == (-4, -4, -4)]
    return Q8Report(tuple(sorted(traces)), tuple(sorted(triples)),
                    "no pair of realizable trace triples sums to (-4,-4,-4)", steps)


def seeded_non_involutions(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        v = rand_element(rng)
        if v * v != signed_identity():
            out.append(v)
    return out


def test_square_roots_match_reference_filter():
    assert sp.square_roots(D0) == reference_square_roots(D0)
    assert len(sp.square_roots(D0)) == 528
    assert sp.square_roots(PPERM) == reference_square_roots(PPERM)
    assert len(sp.square_roots(PPERM)) == 48


def test_pairings_match_the_involutive_permutations():
    """sgnperm.pairings(range(8), k), which census.q8_fixture_solver
    enumerates with, against the matchings read off itertools.permutations,
    in order, for k = 0..4."""
    for k, count in enumerate((1, 28, 210, 420, 105)):
        got, want = tuple(sp.pairings(range(8), k)), matchings(k)
        if len(want) != count or got != want:
            pytest.fail("k = %d: %d pairings, %d matchings" % (k, len(got), len(want)))


def test_parity_witness_matches_reference_on_every_involution(involutions):
    for x in involutions:
        assert x.element.is_involution(), x
        assert sp.parity_witness(x.element) == x.witness, x
    assert len(involutions) == 17038


def test_parity_witness_matches_reference_on_random_elements():
    rng = random.Random(1618)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.parity_witness(v) == reference_parity_witness(v), v
    for v in (signed_identity(), SignedPerm.minus_one()):
        assert sp.parity_witness(v) == reference_parity_witness(v)


def test_4a_prime_shape_matches_reference(involutions):
    """is_4a_prime_shape against reference_shape on every involution, on
    200 elements of seed 1414, and (False, as a bool) on 200 non-involutions
    of seed 5772 and on +-1."""
    for x in involutions:
        assert sp.is_4a_prime_shape(x.element) == x.shape, x
    rng = random.Random(1414)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.is_4a_prime_shape(v) == reference_shape(v.image), v
    others = seeded_non_involutions(5772, 200)
    others += [signed_identity(), SignedPerm.minus_one()]
    for v in others:
        assert sp.is_4a_prime_shape(v) is reference_shape(v.image) is False, v


def test_four_a_prime_elements_match_shape_filter(involutions):
    want = sorted((x.element for x in involutions if x.shape), key=lambda v: v.image)
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


def test_q8_search_matches_tuple_reference():
    # the search scans orbit representatives; the reference tests every
    # pair, so only the charged units differ
    rep, ref = sp.search_q8_obstruction(), reference_search_q8()
    assert (rep.verdict, rep.trace_values, rep.trace_triples) \
        == (ref.verdict, ref.trace_values, ref.trace_triples)
    assert rep.units == 3216 and ref.units == 281088
    assert rep.orbits == (6, 1)


def test_z2_4_search_matches_tuple_reference():
    rep, ref = sp.search_z2_4_obstruction(), reference_search_z2_4()
    assert (rep.average_fixed_dim, rep.verdict, rep.max_all_even_rank, rep.rank2_example) \
        == (ref.average_fixed_dim, ref.verdict, ref.max_all_even_rank, ref.rank2_example)
    assert rep.units == 10450 and ref.units == 177936
    assert rep.orbits == (2, 3)


def test_z2_4_budget_threshold_is_exact():
    # the search charges exactly 10450 units, the reference 177936
    assert sp.search_z2_4_obstruction(10450).max_all_even_rank == 3
    with pytest.raises(sp.SearchBudgetExceeded):
        sp.search_z2_4_obstruction(10449)
    assert reference_search_z2_4(177936).units == 177936
    with pytest.raises(sp.SearchBudgetExceeded):
        reference_search_z2_4(177935)


def involutions_by_type(involutions):
    """The Involution records grouped by their (k, b, s) type."""
    groups = {}
    for x in involutions:
        groups.setdefault(x.kind, []).append(x)
    return groups


def test_involution_classes_match_every_involution_grouped_by_type(involutions):
    """The 14 involution rows against the 17038 involutions grouped by their
    (k, b, s) type: equal sizes per group, one class key per group, and
    distinct keys for distinct groups; each row's representative has its
    group's type."""
    groups = involutions_by_type(involutions)
    kind = {x.element: x.kind for x in involutions}
    classes = sp.involution_classes()
    if len(classes) != 14 or len(groups) != 14:
        pytest.fail("%d classes, %d groups" % (len(classes), len(groups)))
    if {kind[v]: n for v, n in classes} != {t: len(xs) for t, xs in groups.items()}:
        pytest.fail("class sizes differ from the group sizes")
    if sum(n for _, n in classes) != 17038 or sp.d8_involution_count() != 17038 + 2:
        pytest.fail("class sizes add up to %d" % sum(n for _, n in classes))
    keys = {}
    for t, xs in groups.items():
        group_keys = {x.element.class_conjugator()[0] for x in xs}
        if len(group_keys) != 1:
            pytest.fail("type %r meets %d class keys" % (t, len(group_keys)))
        keys[t] = group_keys.pop()
    if len(set(keys.values())) != len(keys):
        pytest.fail("two types share a class key: %r" % (keys,))


def test_shape_and_parity_are_constant_on_each_type(involutions):
    """On the reference values; the kernels equal them on every involution
    (the shape and parity-witness tests above)."""
    for t, xs in involutions_by_type(involutions).items():
        assert len({x.shape for x in xs}) == 1, t
        assert len({x.witness is None for x in xs}) == 1, t


def test_atoms_form_two_h_orbits_with_d0_and_pperm():
    # orbits under conjugation by the 8 generators of H: the 7 adjacent
    # transpositions and one double sign change
    gens = [SignedPerm.from_cycles([(i, i + 1)]) for i in range(1, 8)]
    gens.append(SignedPerm.diagonal((-1, -1, 1, 1, 1, 1, 1, 1)))
    atoms = set(sp.four_a_prime_elements())
    orbits, seen = [], set()
    for x in sorted(atoms, key=lambda v: v.image):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = y.conjugated_by(g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        assert orbit <= atoms
        seen |= orbit
        orbits.append(orbit)
    assert sorted(map(len, orbits)) == [70, 840]
    assert {len(o) for o in orbits if D0 in o} == {70}
    assert {len(o) for o in orbits if PPERM in o} == {840}
    assert sp.even_pairing_starts() == (D0, PPERM)


def test_q8_triples_from_orbit_representatives_match_every_row():
    """The trace triples of the pairs (a, b) with a one representative per
    orbit of square roots of c (conjugation_orbits under
    centralizer_generators) equal those of every pair, both sides read off
    reference_q8_pairs; for d0 and pperm so do those of the search's own
    starts (one root per H-class, sgnperm._root_starts), and the pair counts
    are pinned.  The roots come from reference_square_roots, since
    sgnperm.square_roots serves d0 and pperm alone."""
    rng = random.Random(3141)
    cs = [D0, PPERM] + [g * g for g in (rand_element(rng) for _ in range(12))]
    reduced = 0
    for c in cs:
        roots = reference_square_roots(c)
        trace = [v.trace() for v in roots]
        index = {v.image: k for k, v in enumerate(roots)}
        pairs = reference_q8_pairs(roots)
        triple = {(i, j): (trace[i], trace[j],
                           trace[index[tuple_product(roots[i].image, roots[j].image)]])
                  for i, j in pairs}
        orbits = sp.conjugation_orbits(roots, sp.centralizer_generators(c), c)
        assert sorted(x.image for o in orbits for x in o) == sorted(v.image for v in roots)
        picks = {index[o[0].image] for o in orbits}
        got = {t for (i, _), t in triple.items() if i in picks}
        assert got == set(triple.values()), c
        reduced += len(picks) < len(roots)
        if c in (D0, PPERM):
            assert len(pairs) == {D0: 39936, PPERM: 384}[c]
            tables = {e for e, _ in sp._root_starts(c)}
            starts = {k for k, v in enumerate(roots) if v._e in tables}
            assert len(starts) == {D0: 6, PPERM: 1}[c]
            assert {t for (i, _), t in triple.items() if i in starts} == set(triple.values())
    assert reduced >= 2


def test_orbit_sizes_of_the_square_roots():
    sizes = []
    for c in sp.even_pairing_starts():
        roots = sp.square_roots(c)
        orbits = sp.conjugation_orbits(roots, sp.centralizer_generators(c), c)
        sizes.append(sorted(map(len, orbits)))
    assert sizes == [[12, 12, 72, 144, 144, 144], [48]]


def invariant_inputs():
    """The 14 involution class representatives, one element per signed cycle
    type and seeded random elements."""
    return ([v for v, _ in sp.involution_classes()] + signed_cycle_type_representatives()
            + seeded_elements(2000, seed=1357))


def test_cycle_type_is_the_sorted_reference_type():
    reps = signed_cycle_type_representatives()
    types = {g.cycle_type() for g in reps}
    assert len(types) == len(reps)
    for g in invariant_inputs():
        want = sorted((len(c), s) for c, s in reference_signed_cycles(g))
        assert g.cycle_type() == tuple(want), g


def signed_matrix(g):
    """The matrix of g on e1..e8, read off the image: column i holds the
    sign of image[i] in row |image[i]| - 1."""
    m = [[0] * 8 for _ in range(8)]
    for i, t in enumerate(g.image):
        m[abs(t) - 1][i] = 1 if t > 0 else -1
    return m


def test_order_charpoly_trace_match_signed_cycle_reference():
    """Order and trace against the signed cycles and the two scans, the
    charpoly against list_charpoly of the signed permutation matrix.  The
    signed cycle type fixes the class in the full signed permutation group,
    so the charpoly is taken once per reference type, on its first
    element."""
    orders, charpolys = set(), {}
    for g in invariant_inputs():
        assert g.order() == reference_order(g), g
        ctype = tuple(sorted((len(c), s) for c, s in reference_signed_cycles(g)))
        if ctype not in charpolys:
            charpolys[ctype] = tuple(list_charpoly(signed_matrix(g)))
        assert g.charpoly() == charpolys[ctype], g
        assert g.trace() == reference_trace(g.image), g
        orders.add(g.order())
    assert orders == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 20, 24, 30}


def test_type_invariants_are_cached_per_type():
    """order, charpoly and trace of a walked element are the fields of its
    type record, one record per type, computed from the type alone."""
    records = {}
    for g in invariant_inputs():
        ctype = g.cycle_type()
        if records.setdefault(ctype, ctype) is not ctype:
            pytest.fail("%r: its type record is not shared" % (g,))
        if (g.order(), g.charpoly(), g.trace()) != (ctype.order, ctype.charpoly, ctype.trace):
            pytest.fail("%r: order, charpoly or trace is not read off the record" % (g,))
        if (ctype.order, ctype.charpoly) != (sp._type_order(ctype), sp._type_charpoly(ctype)):
            pytest.fail("%r: the record disagrees with the type" % (g,))
    if len(records) != len(signed_cycle_type_representatives()):
        pytest.fail("%d records" % len(records))
