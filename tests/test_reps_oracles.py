"""Plain reference versions of the decomposition, fixed-root and Dirac
character kernels, kept here and nowhere in the package.  Each pins an
integer kernel (the norm-matrix SNF of decompose_matrix, the per-class
transport of decompose_element, the packed-lane norm powers, the
diagonal-only elementary divisors, the byte-lane fixed_roots, the memoized
isolated-point term of spin_value) to the route it replaces."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from k3census import census, e8, gindex as gi, linalg, reps, sgnperm as sp
from k3census.cyclotomic import CycNum, csc_cot, cyc_make
from k3census.reps import RepDecomp
from k3census.sgnperm import SignedPerm
from conftest import apply_doubled, signed_identity
from test_sgnperm_oracles import (partitions, reference_all_involutions,
                                  signed_cycle_type_representatives)


def rand_element(rng) -> SignedPerm:
    perm = list(range(8))
    rng.shuffle(perm)
    eps = [rng.choice((1, -1)) for _ in range(8)]
    if eps.count(-1) % 2:
        eps[0] = -eps[0]
    return SignedPerm.from_eps_perm(tuple(eps), tuple(perm))


def seeded_elements(n=3000, seed=1729):
    rng = random.Random(seed)
    return [rand_element(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# reference decomposition: saturated kernel basis, rational solves, invariant
# factors of the coordinate matrix, all from sympy


def reference_decompose(m, p):
    """The kernel-basis route, on sympy rather than linalg: a saturated basis
    of ker(g - 1) from the last columns of V in sympy's Smith decomposition
    U (g - 1) V = D, the columns N(e_j) written in that basis by one
    Matrix.solve, and t read off the invariant factors of the coordinate
    matrix."""
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    power = ident
    norm = [[0] * n for _ in range(n)]
    for _ in range(p):
        norm = [[norm[i][j] + power[i][j] for j in range(n)] for i in range(n)]
        power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    assert power == ident
    d, _, v = smith_normal_decomp(sympy.Matrix(m) - sympy.eye(n), domain=sympy.ZZ)
    rk = sum(1 for i in range(n) if d[i, i] != 0)
    basis = v[:, rk:]
    fix_rank = basis.cols
    coords = basis.solve(sympy.Matrix(norm)) if fix_rank else sympy.zeros(0, n)
    assert all(c.is_integer for c in coords)
    divisors = [int(x) for x in invariant_factors(coords, domain=sympy.ZZ) if x != 0]
    assert len(divisors) == fix_rank and set(divisors) <= {1, p}
    t = divisors.count(p)
    r = fix_rank - t
    return RepDecomp(p, r, (n - fix_rank) // (p - 1) - r, t)


def block_sum(p, r, s, t):
    """r regular permutation blocks, s companion blocks of Phi_p and t
    identity entries along the diagonal."""
    blocks = []
    cyc = [[int(i == (j + 1) % p) for j in range(p)] for i in range(p)]
    comp = [[-1 if j == p - 2 else int(i == j + 1) for j in range(p - 1)]
            for i in range(p - 1)]
    blocks += [cyc] * r + [comp] * s + [[[1]]] * t
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def unimodular_pair(rng, n, steps):
    """A seeded unimodular U and its inverse, from elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]          # U <- E U
        for row in u_inv:                                        # U^-1 <- U^-1 E^-1
            row[j] -= q * row[i]
    return u, u_inv


def mat_prod(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_decompose_matches_reference_on_witnesses():
    n = 0
    for p in (3, 5, 7):
        for dec in reps.lemma45_census(p):
            m = reps.coxeter_witness(p, (dec.r, dec.s, dec.t))
            assert reps.decompose_matrix(m, p) == reference_decompose(m, p) == dec
            n += 1
    assert n == 7


def test_decompose_matches_reference_on_seeded_h_elements():
    seen = {3: 0, 5: 0, 7: 0}
    for g in seeded_elements():
        p = g.order()
        if p not in seen:
            continue
        m = e8.matrix_in_f_basis(g.matrix_e())
        assert reps.decompose_element(g, p) == reference_decompose(m, p), g
        seen[p] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", [3, 5, 7])
def test_decompose_matches_reference_on_conjugated_block_sums(p):
    rng = random.Random(100 + p)
    shapes = [(1, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (1, 0, 2), (0, 1, 1),
              (0, 2, 3), (2, 0, 1), (1, 1, 2), (2, 1, 0)]
    for rst in shapes:
        m0 = block_sum(p, *rst)
        n = len(m0)
        if n > 18:
            continue
        for _ in range(3):
            u, u_inv = unimodular_pair(rng, n, 2 * n)
            assert mat_prod(u, u_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
            m = mat_prod(mat_prod(u, m0), u_inv)
            want = RepDecomp(p, *rst)
            assert reps.decompose_matrix(m, p) == reference_decompose(m, p) == want, (rst, m)


def test_decompose_rejects_wrong_order_block_sums():
    with pytest.raises(ValueError):
        reps.decompose_matrix(block_sum(5, 1, 0, 1), 3)
    with pytest.raises(ValueError):
        reps.decompose_matrix(block_sum(3, 0, 0, 4), 3)


# ---------------------------------------------------------------------------
# class transport: decompose_element decomposes one representative per class;
# each random conjugate is checked against its own f-basis matrix


def order_p_types():
    """{signed cycle type: order} for the types of H of order 3, 5 or 7,
    from the partitions of 8 with every sign pattern of even parity (a cycle
    of length L has order L with sign +1 and 2L with -1)."""
    out = {}
    for parts in partitions(8):
        for signs in product((1, -1), repeat=len(parts)):
            if signs.count(-1) % 2:
                continue
            order = lcm(*(length if s == 1 else 2 * length for length, s in zip(parts, signs)))
            if order in (3, 5, 7):
                out[tuple(sorted(zip(parts, signs)))] = order
    return out


def test_order_p_types_of_h():
    assert sorted(order_p_types().values()) == [3, 3, 5, 7]


def test_class_transport_matches_reference_on_random_conjugates():
    rng = random.Random(3141)
    for ctype, p in order_p_types().items():
        rep = sp.class_representative((ctype, 0))
        assert rep.cycle_type() == ctype
        for _ in range(200):
            g = rep.conjugated_by(rand_element(rng))
            got, h = g.class_conjugator()
            assert got == (ctype, 0), g
            assert sum(x < 0 for x in h.image) % 2 == 0, (g, h)
            assert g.conjugated_by(h) == rep, (g, h)
            m = e8.matrix_in_f_basis(g.matrix_e())
            assert reps.decompose_element(g, p) == reference_decompose(m, p), g


def test_standard_cycles_are_their_own_representatives():
    for p in (3, 5, 7):
        g = sp.std_cycle(p)
        assert sp.class_representative((g.cycle_type(), 0)) == g


# ---------------------------------------------------------------------------
# reference norm powers and divisors: dense matrix powers, and the Smith form
# carried with both unimodular transforms


def reference_norm_matrix(m, p):
    """1 + g + ... + g^(p-1) from p - 1 dense products, after checking g^p = 1."""
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    mcols = list(zip(*m))
    power = [list(row) for row in m]
    norm = ident
    for _ in range(p - 1):
        norm = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(norm, power)]
        power = [[sum(x * y for x, y in zip(row, col)) for col in mcols] for row in power]
    if power != ident:
        raise ValueError("element does not have order %d" % p)
    return norm


def reference_smith_normal_form(a):
    """(d, u, v) with u*a*v = d, every row and column operation applied to
    the transforms as it is made."""
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t] != 0:
                add_row(t, i, -(m[i][t] // m[t][t]))
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, cols):
            if m[t][j] != 0:
                add_col(t, j, -(m[t][j] // m[t][t]))
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue
        bad = next((i for i in range(t + 1, rows)
                    if any(m[i][j] % m[t][t] for j in range(t + 1, cols))), None)
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return m, u, v


def reference_elementary_divisors(a):
    d, _, _ = reference_smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def elements_of_every_order(conjugates=2, seed=4242):
    """One element of H per signed cycle type, each with seeded random
    conjugates, so every element order of H occurs."""
    rng = random.Random(seed)
    out = []
    for g in signed_cycle_type_representatives():
        out.append(g)
        for _ in range(conjugates):
            out.append(g.conjugated_by(rand_element(rng)))
    return out


def kernel_inputs():
    """(label, f-basis matrix, order) for the 14 involution class
    representatives, every Coxeter witness and seeded elements of every
    order in H."""
    out = [("class %r" % (v,), e8.matrix_in_f_basis(v.matrix_e()), 2)
           for v, _ in sp.involution_classes()]
    for p in (3, 5, 7):
        for dec in reps.lemma45_census(p):
            out.append(("witness %r" % (dec,), reps.coxeter_witness(p, (dec.r, dec.s, dec.t)), p))
    out += [(repr(g), e8.matrix_in_f_basis(g.matrix_e()), g.order())
            for g in elements_of_every_order()]
    return out


def test_kernel_inputs_cover_every_order_in_h():
    inputs = kernel_inputs()
    # lcm of cycle lengths L (sign +1) or 2L (sign -1) over partitions of 8
    assert {n for _, _, n in inputs} == {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 20, 24, 30}
    assert sum(label.startswith("class") for label, _, _ in inputs) == 14
    assert sum(label.startswith("witness") for label, _, _ in inputs) == 7


def test_norm_matrix_matches_dense_powers():
    for label, m, n in kernel_inputs():
        assert reps.norm_matrix(m, n) == reference_norm_matrix(m, n), label
        for q in (2, 3, 5, 7):   # g^q = 1 exactly when the order n divides q
            if q % n:
                with pytest.raises(ValueError):
                    reference_norm_matrix(m, q)
                with pytest.raises(ValueError):
                    reps.norm_matrix(m, q)
            else:
                assert reps.norm_matrix(m, q) == reference_norm_matrix(m, q), label


def test_norm_matrix_matches_dense_powers_on_conjugated_block_sums():
    rng = random.Random(2718)
    for p in (2, 3, 5, 7, 11):
        for rst in ((1, 0, 0), (0, 1, 1), (1, 2, 0), (2, 0, 1)):
            m0 = block_sum(p, *rst)
            u, u_inv = unimodular_pair(rng, len(m0), 3 * len(m0))
            m = mat_prod(mat_prod(u, m0), u_inv)
            assert reps.norm_matrix(m, p) == reference_norm_matrix(m, p), (p, rst)


def test_divisors_match_transform_carrying_route():
    for label, m, n in kernel_inputs():
        g_minus_1 = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
        for a in (g_minus_1, reference_norm_matrix(m, n)):
            assert linalg.elementary_divisors(a) == reference_elementary_divisors(a), label
            assert linalg.smith_normal_form(a) == reference_smith_normal_form(a), label


def test_smith_transforms_match_reference_on_random_matrices():
    rng = random.Random(8080)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(cols)]
             for _ in range(rows)]
        assert linalg.smith_normal_form(a) == reference_smith_normal_form(a), a
        assert linalg.elementary_divisors(a) == reference_elementary_divisors(a), a


def test_decompose_matches_reference_on_every_order_p_input():
    seen = set()
    for label, m, n in kernel_inputs():
        if n in (3, 5, 7):
            assert reps.decompose_matrix(m, n) == reference_decompose(m, n), label
            seen.add(n)
    assert seen == {3, 5, 7}


# ---------------------------------------------------------------------------
# reference fixed roots: the lattice action on every root


def reference_fixed_roots(gens):
    if isinstance(gens, SignedPerm):
        gens = [gens]
    return tuple(r for r in e8.enumerate_roots()
                 if all(apply_doubled(g, r.d) == r.d for g in gens))


def special_elements():
    out = [signed_identity(), SignedPerm.minus_one(), sp.w_f7_prime()]
    out += [sp.std_cycle(p) for p in range(2, 9)]
    out += [sp.w_f(i) for i in range(1, 8)]
    out += [SignedPerm.diagonal((-1, -1) + (1,) * 6), SignedPerm.diagonal((-1,) * 4 + (1,) * 4)]
    return out


def reflections_in_h():
    return [sp.reflection_in_h(r) for r in e8.enumerate_roots() if 0 in r.d]


def test_fixed_roots_match_reference_on_single_elements():
    elements = special_elements() + reflections_in_h()
    elements += seeded_elements(600, seed=77)
    elements += list(reference_all_involutions())[::97]
    counts = set()
    for g in elements:
        got = sp.fixed_roots(g)
        assert got == reference_fixed_roots(g), g
        counts.add(len(got))
    assert 240 in counts and 0 in counts and len(counts) > 5


def test_fixed_roots_match_reference_on_generator_lists():
    rng = random.Random(31)
    specials = special_elements()
    invs = list(reference_all_involutions())
    refl = reflections_in_h()
    lists = [[], [signed_identity()], specials[3:6], [sp.w_f(1), sp.w_f(3)],
             [sp.std_cycle(3), sp.w_f7_prime()], [sp.w_f(i) for i in range(1, 8)]]
    lists += [rng.sample(refl, k) for k in (2, 3, 4, 5) for _ in range(10)]
    lists += [rng.sample(invs, k) for k in (2, 2, 3, 3, 4) for _ in range(20)]
    lists += [rng.sample(specials, 2) for _ in range(30)]
    for gens in lists:
        assert sp.fixed_roots(gens) == reference_fixed_roots(gens), gens
        assert sp.fixed_roots(tuple(gens)) == reference_fixed_roots(gens)
    assert len(sp.fixed_roots([])) == 240


# ---------------------------------------------------------------------------
# reference Dirac character: every isolated-point term computed afresh


def reference_spin_value(data):
    p = data.p
    total = CycNum.rational(0)
    for a, b in data.isolated:
        r = next(r for r in range(p) if (2 * r + a + b) % p == 0)
        num = cyc_make(p, r)
        den = (CycNum.rational(1) - cyc_make(p, -a)) * (CycNum.rational(1) - cyc_make(p, -b))
        total = total + num / den
    for _, selfint, c in data.surfaces:
        if selfint == 0:
            continue
        r_y = next(r for r in range(1, p) if (2 * r + c) % p == 0)
        k_y = (2 * r_y + c) // p
        total = total + csc_cot(p, c) * Fraction((-1) ** k_y * selfint, 4)
    return total


def census_spin_data():
    """Every FixedPointData whose Dirac character the p = 5 and p = 7
    censuses use: one group of each type at each parameter (nu_values) and
    each candidate's whole fixed set (the sum that census._filter takes)."""
    seen = []
    for p, types in census.GROUP_TYPES.items():
        seen += [census.group_data(p, t, k) for t in types for k in range(1, (p + 1) // 2)]
        seen += [c.fixed_point_data() for c in census.run_census(p).candidates]
    return seen


def test_spin_value_matches_direct_sum_on_census_data():
    data = census_spin_data()
    points = {(d.p, pt) for d in data for pt in d.isolated}
    assert {p for p, _ in points} == {5, 7}
    for d in data:
        assert gi.spin_value(d) == reference_spin_value(d), d
    for p, (a, b) in points:
        single = gi.FixedPointData(p, ((a, b),))
        assert gi.spin_value(single) == reference_spin_value(single)
