import math
import random
from fractions import Fraction

import pytest

from k3census import e8, sgnperm as sp
from k3census.e8 import LatticeVec
from k3census.sgnperm import SignedPerm
from conftest import rand_element, signed_identity


def rand_vec(rng) -> LatticeVec:
    out = LatticeVec((0,) * 8)
    for f in e8.standard_basis():
        out = out + f.scaled(rng.randint(-3, 3))
    return out


def test_membership_constraint():
    with pytest.raises(ValueError):
        SignedPerm.diagonal((-1, 1, 1, 1, 1, 1, 1, 1))  # odd sign count


def test_group_law_matches_matrix_action():
    rng = random.Random(42)
    for _ in range(50):
        g, h = rand_element(rng), rand_element(rng)
        x = rand_vec(rng)
        assert (g * h).apply(x) == g.apply(h.apply(x))
        assert (g * g.inverse()) == signed_identity()


def test_semidirect_square_relation():
    # ((eps) sigma)^2 = (eps * eps o sigma^{-1}) sigma^2
    rng = random.Random(3)
    for _ in range(50):
        v = rand_element(rng)
        eps, perm = v.eps(), v.perm()
        sq = v * v
        for i in range(8):
            t = sq.image[i]
            assert abs(t) - 1 == perm[perm[i]]
            assert (1 if t > 0 else -1) == eps[perm[i]] * eps[perm[perm[i]]]
        x = rand_vec(rng)
        assert sq.apply(x) == v.apply(v.apply(x))


def group_order() -> int:
    """|H|: 8! permutations times the sign vectors with an even number of
    -1 entries."""
    return math.factorial(8) * sum(math.comb(8, k) for k in range(0, 9, 2))


def test_group_order_and_sylow():
    assert group_order() == 2**7 * math.factorial(8)
    two_part = 1
    n = group_order()
    while n % 2 == 0:
        two_part *= 2
        n //= 2
    assert two_part == 2**14


def test_order_trace_charpoly_examples():
    ident = signed_identity()
    assert (ident.order(), ident.trace()) == (1, 8)
    assert ident.charpoly() == (1, -8, 28, -56, 70, -56, 28, -8, 1)
    diag = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
    assert (diag.order(), diag.trace()) == (2, 0)
    # (x+1)^4 (x-1)^4 = (x^2-1)^4
    assert diag.charpoly() == (1, 0, -4, 0, 6, 0, -4, 0, 1)
    seven = SignedPerm.from_cycles([tuple(range(1, 8))])
    assert (seven.order(), seven.trace()) == (7, 1)
    # (x^7 - 1)(x - 1)
    assert seven.charpoly() == (1, -1, 0, 0, 0, 0, 0, -1, 1)


def test_isometry_property():
    rng = random.Random(99)
    for _ in range(60):
        g = rand_element(rng)
        u, v = rand_vec(rng), rand_vec(rng)
        assert e8.inner(g.apply(u), g.apply(v)) == e8.inner(u, v)


def test_reflections_as_signed_perms():
    assert sp.w_f(1).image == (2, 1, 3, 4, 5, 6, 7, 8)
    assert sp.w_f(7).image == (1, 2, 3, 4, 5, 6, -8, -7)
    assert sp.w_f7_prime().image == (1, 2, 3, 4, 5, 6, 8, 7)
    with pytest.raises(ValueError):
        sp.reflection_in_h(e8.standard_basis()[7])  # half-vector root


def test_involution_classes_of_reflection_products():
    labels = {}
    v = sp.w_f(1)
    labels["1A'"] = sp.involution_class(v)
    labels["2A"] = sp.involution_class(sp.w_f(1) * sp.w_f(3))
    labels["3A"] = sp.involution_class(sp.w_f(1) * sp.w_f(3) * sp.w_f(5))
    four_a = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f(7)
    four_ap = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f7_prime()
    labels["4A"] = sp.involution_class(four_a)
    labels["4A'"] = sp.involution_class(four_ap)
    for want, got in labels.items():
        assert got.label == want
    # the odd witness for the 4A product is the hanging basis root
    f8 = e8.standard_basis()[7]
    assert e8.inner(four_a.apply(f8), f8) == 1
    # all 240 pairings even for the other class
    assert sp.parity_witness(four_ap) is None
    assert labels["4A"].witness is not None


def test_involution_class_error_paths():
    with pytest.raises(ValueError):
        sp.involution_class(SignedPerm.minus_one())
    with pytest.raises(ValueError):
        sp.involution_class(sp.std_cycle(5))


def test_minus_one_is_one_cached_immutable_element():
    a, b = SignedPerm.minus_one(), SignedPerm.minus_one()
    assert a is b and a == b and hash(a) == hash(b)
    assert a.image == (-1, -2, -3, -4, -5, -6, -7, -8)
    assert a == SignedPerm.diagonal((-1,) * 8) and len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.image = tuple(range(1, 9))
    with pytest.raises(ValueError):
        sp.involution_class(SignedPerm.minus_one())


def test_trace_eigenvalue_relation():
    for v in (sp.w_f(1), sp.w_f(1) * sp.w_f(3),
              sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f7_prime()):
        cls = sp.involution_class(v)
        assert v.trace() == 8 - 2 * cls.l_value


def test_involution_class_conjugation_invariant():
    rng = random.Random(2026)
    four_ap = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f7_prime()
    four_a = sp.w_f(1) * sp.w_f(3) * sp.w_f(5) * sp.w_f(7)
    for v, want in ((four_ap, "4A'"), (four_a, "4A"), (sp.w_f(2), "1A'")):
        for _ in range(100):
            h = rand_element(rng)
            assert sp.involution_class(v.conjugated_by(h)).label == want


def test_4a_prime_census_exhaustive(involutions):
    atoms = sp.four_a_prime_elements()
    assert len(atoms) == 910
    diag = [v for v in atoms if v.perm() == tuple(range(8))]
    assert len(diag) == 70  # choose 4 of 8 coordinates to negate
    for x in involutions:
        assert sp.is_4a_prime_shape(x.element) == (sp.parity_witness(x.element) is None)
    assert len(involutions) == 17038


def test_diagonal_4a_prime_condition():
    v = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
    assert sp.involution_class(v).label == "4A'"
    # two -1 entries is class 2A after normalization, not 4A'
    w = SignedPerm.diagonal((-1, -1, 1, 1, 1, 1, 1, 1))
    assert sp.involution_class(w).label == "2A"


def test_classify_order4_normal_forms():
    # two transpositions, sign pattern forcing trace -4
    v = SignedPerm.from_eps_perm((1, -1, 1, -1, -1, -1, -1, -1),
                                 (1, 0, 3, 2, 4, 5, 6, 7))
    s = sp.classify_order4(v)
    assert (s.case, s.transpositions, s.trace) == ("i", 2, -4)
    # two disjoint 4-cycles, constant signs: trace 0
    w = SignedPerm.from_cycles([(1, 2, 3, 4), (5, 6, 7, 8)])
    s = sp.classify_order4(w)
    assert (s.case, s.transpositions, s.trace) == ("ii", 0, 0)
    # three transpositions with the stated signs: trace -2
    u = SignedPerm.from_eps_perm((1, -1, 1, -1, 1, 1, -1, -1),
                                 (1, 0, 3, 2, 5, 4, 6, 7))
    s = sp.classify_order4(u)
    assert (s.case, s.transpositions, s.trace) == ("i", 3, -2)
    with pytest.raises(ValueError):
        sp.classify_order4(sp.w_f(1))


def test_square_roots_are_square_roots():
    c = SignedPerm.diagonal((-1, -1, -1, -1, 1, 1, 1, 1))
    roots = sp.square_roots(c)
    assert len(roots) == 528
    for v in roots[:50]:
        assert v * v == c
    pperm = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)])
    roots = sp.square_roots(pperm)
    assert len(roots) == 48
    assert all(v * v == pperm for v in roots)


def test_fixed_roots_examples():
    five = sp.std_cycle(5)
    fixed = sp.fixed_roots(five)
    omega1 = {r.d for r in fixed if all(x == 0 for x in r.d[:5])}
    assert len(fixed) == 20 and len(omega1) == 12
    seven = sp.std_cycle(7)
    fixed7 = sp.fixed_roots(seven)
    assert {r.d for r in fixed7} == {(1,) * 8, (-1,) * 8}
    assert len(sp.fixed_roots(signed_identity())) == 240
    # a subgroup: both generators must fix
    both = sp.fixed_roots([five, sp.w_f(6)])
    assert all(r in fixed for r in both)


def test_z2_4_search():
    rep = sp.search_z2_4_obstruction()
    assert rep.average_fixed_dim == Fraction(1, 2)
    assert rep.max_all_even_rank == 3
    a, b = rep.rank2_example
    assert a * b == b * a
    assert sp.is_4a_prime_shape(a) and sp.is_4a_prime_shape(b) \
        and sp.is_4a_prime_shape(a * b)


def test_q8_search():
    rep = sp.search_q8_obstruction()
    assert set(rep.trace_values) <= {-4, -2, 0, 2, 4}
    assert rep.trace_triples  # quaternion pairs do exist in H
    for t1 in rep.trace_triples:
        for t2 in rep.trace_triples:
            assert tuple(x + y for x, y in zip(t1, t2)) != (-4, -4, -4)
    # the two branch endings of the case analysis: a pair of -4 traces
    # forces a +4 third trace, and the all--2 triple is not realizable
    for t in rep.trace_triples:
        if t[0] == -4 and t[1] == -4:
            assert t[2] == 4
    assert (-2, -2, -2) not in rep.trace_triples


def test_4a_prime_with_signed_transpositions():
    # four disjoint transpositions, signs constant on pairs, four -1 entries
    v = SignedPerm.from_cycles([(1, 2), (3, 4), (5, 6), (7, 8)],
                               eps=(-1, -1, -1, -1, 1, 1, 1, 1))
    assert sp.involution_class(v).label == "4A'"


def test_search_budget_is_honoured():
    with pytest.raises(sp.SearchBudgetExceeded):
        sp.search_q8_obstruction(budget=10)
