"""Plain reference versions of the signed-permutation scans, kept here and
nowhere in the package.  Each pins a fast kernel of sgnperm to the direct
search it replaces, so every scan stays exhaustive and every reported
witness stays the same."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import lcm, prod

import pytest

from k3census import e8, sgnperm as sp
from k3census.errors import CheckFailure
from k3census.sgnperm import Q8Report, SignedPerm, Z24Report
from conftest import apply_doubled, signed_identity

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
        if e8.raw_inner(apply_doubled(v, r.d), r.d) % 2:
            return r
    return None


def reference_signed_cycles(v):
    """Cycles of the underlying permutation, each from its least element,
    with their sign products."""
    image = v.image
    return [(cyc, prod(1 if image[i] > 0 else -1 for i in cyc))
            for cyc in sp._cycles(v.perm())]


def reference_order(v):
    return lcm(*(len(c) if s == 1 else 2 * len(c) for c, s in reference_signed_cycles(v)))


def reference_charpoly(v):
    """Product of x^L - s over the signed cycles, multiplied out densely."""
    poly = [1]
    for cyc, sign in reference_signed_cycles(v):
        factor = [-sign] + [0] * (len(cyc) - 1) + [1]
        new = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                new[i + j] += a * b
        poly = new
    return tuple(poly)


def reference_trace(v):
    return sum(1 if t == i + 1 else -1 if t == -(i + 1) else 0
               for i, t in enumerate(v.image))


def reference_is_4a_prime_shape(v):
    """The shape test stated through the signed cycle decomposition."""
    if not (v != signed_identity() and v * v == signed_identity()):
        return False
    two_cycles = [c for c, _ in reference_signed_cycles(v) if len(c) == 2]
    eps, p = v.eps(), v.perm()
    if any(eps[i] != eps[p[i]] for i in range(8)):
        return False
    neg = eps.count(-1)
    if not two_cycles:
        return neg == 4
    return len(two_cycles) == 4 and neg % 4 == 0


def reference_eps_shape(v):
    """The shape test through the eps() / perm() accessors."""
    if not v.is_involution():
        return False
    eps = v.eps()
    p = v.perm()
    if any(eps[i] != eps[p[i]] for i in range(8)):
        return False
    n_minus = eps.count(-1)
    moved = sum(p[i] != i for i in range(8))
    if moved == 0:
        return n_minus == 4
    return moved == 8 and n_minus % 4 == 0


def reference_all_involutions():
    """Every involution of H but -1, built from a sign vector and a
    permutation through from_eps_perm."""
    minus = SignedPerm.minus_one()
    ident = signed_identity()
    for n_trans in range(5):
        for pairs in sp.pairings(tuple(range(8)), n_trans):
            moved = [i for pr in pairs for i in pr]
            fixed = [i for i in range(8) if i not in moved]
            for pair_signs in product((1, -1), repeat=n_trans):
                for fixed_signs in product((1, -1), repeat=len(fixed)):
                    if fixed_signs.count(-1) % 2:
                        continue
                    eps = [1] * 8
                    for pr, s in zip(pairs, pair_signs):
                        eps[pr[0]] = eps[pr[1]] = s
                    for i, s in zip(fixed, fixed_signs):
                        eps[i] = s
                    perm = list(range(8))
                    for a, b in pairs:
                        perm[a], perm[b] = b, a
                    v = SignedPerm.from_eps_perm(tuple(eps), tuple(perm))
                    if v != minus and v != ident:
                        yield v


def tuple_product(a, b):
    """Image tuple of a * b, by reading a's signed images off b's entries:
    the comprehension the package composed image tuples with before every
    product became one gather of signed tables."""
    return tuple([a[t - 1] if t > 0 else -a[-t - 1] for t in b])


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
    images = {v.image for v in roots}
    return {(i, j) for i, a in enumerate(roots) for j, b in enumerate(roots)
            if tuple_product(a.image, b.image) in images}


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
    for v in reference_all_involutions():
        n += 1
        assert v.is_involution(), v
        assert sp.parity_witness(v) == reference_parity_witness(v), v
    assert n == 17038


def test_parity_witness_matches_reference_on_random_elements():
    rng = random.Random(1618)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.parity_witness(v) == reference_parity_witness(v), v
    for v in (signed_identity(), SignedPerm.minus_one()):
        assert sp.parity_witness(v) == reference_parity_witness(v)


def test_4a_prime_shape_matches_reference():
    for v in reference_all_involutions():
        assert sp.is_4a_prime_shape(v) == reference_is_4a_prime_shape(v), v
    rng = random.Random(1414)
    for _ in range(200):
        v = rand_element(rng)
        assert sp.is_4a_prime_shape(v) == reference_is_4a_prime_shape(v), v


def test_image_shape_test_matches_eps_reference():
    for v in reference_all_involutions():
        assert sp.is_4a_prime_shape(v) == reference_eps_shape(v), v
    others = seeded_non_involutions(5772, 200)
    others += [signed_identity(), SignedPerm.minus_one()]
    for v in others:
        assert sp.is_4a_prime_shape(v) is reference_eps_shape(v) is False, v


def test_four_a_prime_elements_match_shape_filter():
    want = sorted((v for v in reference_all_involutions() if sp.is_4a_prime_shape(v)),
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


def reference_involution_type(v):
    """(k, b, s) through the signed cycle decomposition: k 2-cycles, b fixed
    coordinates sent to their negatives, s the parity of the 2-cycles with
    sign -1 when k = 4."""
    eps = v.eps()
    two = [c for c, _ in reference_signed_cycles(v) if len(c) == 2]
    b = sum(1 for c, _ in reference_signed_cycles(v) if len(c) == 1 and eps[c[0]] == -1)
    s = sum(eps[c[0]] == -1 for c in two) % 2 if len(two) == 4 else 0
    return len(two), b, s


def involutions_by_type():
    groups = {}
    for v in reference_all_involutions():
        groups.setdefault(reference_involution_type(v), []).append(v)
    return groups


def test_involution_classes_match_every_involution_grouped_by_type():
    """The 14 involution rows against the 17038 involutions grouped by
    reference_involution_type: equal sizes per group, one class key per
    group, and distinct keys for distinct groups."""
    groups = involutions_by_type()
    classes = sp.involution_classes()
    if len(classes) != 14 or len(groups) != 14:
        pytest.fail("%d classes, %d groups" % (len(classes), len(groups)))
    if {reference_involution_type(v): n for v, n in classes} \
            != {t: len(vs) for t, vs in groups.items()}:
        pytest.fail("class sizes differ from the group sizes")
    if sum(n for _, n in classes) != 17038 or sp.d8_involution_count() != 17038 + 2:
        pytest.fail("class sizes add up to %d" % sum(n for _, n in classes))
    keys = {}
    for t, vs in groups.items():
        group_keys = {v.class_conjugator()[0] for v in vs}
        if len(group_keys) != 1:
            pytest.fail("type %r meets %d class keys" % (t, len(group_keys)))
        keys[t] = group_keys.pop()
    if len(set(keys.values())) != len(keys):
        pytest.fail("two types share a class key: %r" % (keys,))


def test_shape_and_parity_are_constant_on_each_type():
    for t, vs in involutions_by_type().items():
        assert len({sp.is_4a_prime_shape(v) for v in vs}) == 1, t
        assert len({sp.parity_witness(v) is None for v in vs}) == 1, t


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
    reference_q8_pairs; the pair counts of d0 and pperm are pinned."""
    rng = random.Random(3141)
    cs = [D0, PPERM] + [g * g for g in (rand_element(rng) for _ in range(12))]
    reduced = 0
    for c in cs:
        roots = sp.square_roots(c)
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
    assert reduced >= 2


def test_orbit_sizes_of_the_square_roots():
    sizes = []
    for c in sp.even_pairing_starts():
        roots = sp.square_roots(c)
        orbits = sp.conjugation_orbits(roots, sp.centralizer_generators(c), c)
        sizes.append(sorted(map(len, orbits)))
    assert sizes == [[12, 12, 72, 144, 144, 144], [48]]


def partitions(n, largest=None):
    """Partitions of n into non-increasing parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def signed_cycle_type_representatives():
    """One element of H for each signed cycle type: the cycles run over
    consecutive letters, the sign product of a cycle sits on its first
    letter, and an even number of cycles is negative."""
    out = {}
    for parts in partitions(8):
        for signs in product((1, -1), repeat=len(parts)):
            if signs.count(-1) % 2:
                continue
            cycles, eps, at = [], [1] * 8, 1
            for length, sign in zip(parts, signs):
                cycles.append(tuple(range(at, at + length)))
                eps[at - 1] = sign
                at += length
            out.setdefault(tuple(sorted(zip(parts, signs))),
                           SignedPerm.from_cycles(cycles, eps))
    return list(out.values())


def invariant_inputs():
    """The 14 involution class representatives, one element per signed cycle
    type and seeded random elements."""
    return ([v for v, _ in sp.involution_classes()] + signed_cycle_type_representatives()
            + seeded_elements(2000, seed=1357))


def seeded_elements(n, seed):
    rng = random.Random(seed)
    return [rand_element(rng) for _ in range(n)]


def test_cycle_type_is_the_sorted_reference_type():
    reps = signed_cycle_type_representatives()
    types = {g.cycle_type() for g in reps}
    assert len(types) == len(reps)
    for g in invariant_inputs():
        want = sorted((len(c), s) for c, s in reference_signed_cycles(g))
        assert g.cycle_type() == tuple(want), g


def test_order_charpoly_trace_match_signed_cycle_reference():
    orders = set()
    for g in invariant_inputs():
        assert g.order() == reference_order(g), g
        assert g.charpoly() == reference_charpoly(g), g
        assert g.trace() == reference_trace(g), g
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


# ---------------------------------------------------------------------------
# products: the comprehension the package used against the padded-tuple
# route and the translate of byte tables


def tuple_table(a):
    """The 17-tuple signed table of the image a, the layout the package
    stored before tables became bytes: index t in -8..8 reads the signed
    image of t, so entry 0 is 0, entry t is a[t-1] and entry -t (counted
    from the end) is -a[t-1]."""
    return (0, *a, *(-t for t in reversed(a)))


def byte_table(a):
    """The signed table of the image a as the package stores it: each entry
    of tuple_table(a) as the byte t mod 17."""
    return bytes([t % 17 for t in tuple_table(a)])


def ext_route_mul(a, b):
    """a after b through the 17-entry padding tuple_table(a), indexed by b."""
    return tuple(map(tuple_table(a).__getitem__, b))


def test_img_mul_matches_the_ext_route():
    imgs = [g.image for g in seeded_elements(200, seed=2468)]
    imgs += [signed_identity().image, SignedPerm.minus_one().image]
    for a in imgs:
        for b in imgs:
            want = tuple_product(a, b)
            got = SignedPerm(a) * SignedPerm(b)
            if ext_route_mul(a, b) != want or got.image != want or got._e != byte_table(want):
                pytest.fail("%r * %r: %r, the comprehension gives %r" % (a, b, got, want))
