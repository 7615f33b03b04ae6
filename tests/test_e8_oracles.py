"""Reference versions of the e8 witness searches and of the f-basis inverse,
kept here and nowhere in the package.

The chain search in `e8` runs on the raw doubled tuples: (r, s) = +-1 is
|r.d . s.d| = 4 and sorting is by the tuple r.d.  The references below are
the routes it replaced: the same depth-first search over `inner` on
`LatticeVec` objects, sorted with `LatticeVec.__lt__`.  They must visit
the roots in the same order and so return identical witnesses.  The f-basis
inverse, now C^-1 D^T from the Smith form of the Cartan matrix, is compared
with sympy's exact inverse of the basis matrix.

No check uses the assert statement, so the file keeps its meaning under
`python -O`."""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
import sympy

from k3census import e8, sgnperm as sp
from k3census.e8 import inner
from test_linalg import det


def ref_normalized_mod_sign(roots):
    seen, out = set(), []
    for r in sorted(roots):
        if r.d in seen or tuple(-x for x in r.d) in seen:
            continue
        seen.add(r.d)
        out.append(r)
    return out


def ref_find_a_chain(roots, n, avoid=()):
    pool = [r for r in roots if all(inner(r, a) == 0 for a in avoid)]

    def extend(chain):
        if len(chain) == n:
            return tuple(chain)
        for r in pool:
            if any(r.d == c.d for c in chain):
                continue
            if abs(inner(chain[-1], r)) != 1:
                continue
            if any(inner(c, r) != 0 for c in chain[:-1]):
                continue
            got = extend(chain + [r])
            if got:
                return got
        return None

    for start in pool:
        got = extend([start])
        if got:
            return got
    return None


def ref_a4_pair():
    roots = list(e8.enumerate_roots())
    first = ref_find_a_chain(ref_normalized_mod_sign(roots), 4)
    rest = [r for r in roots if all(inner(r, a) == 0 for a in first)]
    return first, ref_find_a_chain(ref_normalized_mod_sign(rest), 4)


def ref_a2_quadruple():
    chains, roots = [], list(e8.enumerate_roots())
    for _ in range(4):
        avoid = tuple(r for c in chains for r in c)
        chains.append(ref_find_a_chain(ref_normalized_mod_sign(roots), 2, avoid=avoid))
    return tuple(chains)


def avoid_a4_pair():
    """The A4 pair as e8 searched it before filtering the normalized pool:
    the second chain from a fresh normalization of every root orthogonal
    to the first."""
    roots = list(e8.enumerate_roots())
    first = e8._find_a_chain(e8._normalized_mod_sign(roots), 4)
    rest = [r for r in roots if not any(e8._dot(r.d, a.d) for a in first)]
    return first, e8._find_a_chain(e8._normalized_mod_sign(rest), 4)


def avoid_a2_quadruple():
    """The A2 quadruple as e8 searched it before filtering its pool per
    chain: each chain tests the whole pool against every earlier root."""
    chains, pool = [], e8._normalized_mod_sign(e8.enumerate_roots())
    for _ in range(4):
        chains.append(e8._find_a_chain(pool, 2, avoid=tuple(r for c in chains for r in c)))
    return tuple(chains)


@lru_cache(maxsize=None)
def ref_basis_inverse():
    """(s, B) with B / s the inverse of the basis matrix, by sympy's exact
    matrix inverse."""
    fs = e8.standard_basis()
    f = sympy.Matrix([[fs[j].halves()[i] for j in range(8)] for i in range(8)])
    if f.rank() != 8:
        pytest.fail("f1..f8 are linearly dependent")
    inv = f.inv()
    s = lcm(*(int(x.q) for x in inv))
    return s, tuple(tuple(int(inv[i, j] * s) for j in range(8)) for i in range(8))


def fixed_root_sets():
    """Root sets the package searches: all roots, and the roots fixed by
    seeded elements of H of every order up to 8."""
    rng = random.Random(8128)
    sets = [list(e8.enumerate_roots())]
    for _ in range(40):
        perm = list(range(8))
        rng.shuffle(perm)
        eps = [rng.choice((1, -1)) for _ in range(8)]
        if eps.count(-1) % 2:
            eps[0] = -eps[0]
        g = sp.SignedPerm.from_eps_perm(tuple(eps), tuple(perm))
        sets.append(list(sp.fixed_roots(g)))
    return sets


def test_normalization_matches_lattice_vec_order():
    for roots in fixed_root_sets():
        got = e8._normalized_mod_sign(roots)
        if got != ref_normalized_mod_sign(roots):
            pytest.fail("normalized pools differ on %d roots" % len(roots))


def test_chain_search_matches_inner_route():
    pool = ref_normalized_mod_sign(e8.enumerate_roots())
    for n in range(1, 9):
        want = ref_find_a_chain(pool, n)
        if want is None:
            pytest.fail("the reference finds no A%d chain in E8" % n)
        got = e8._find_a_chain(e8._normalized_mod_sign(e8.enumerate_roots()), n)
        if got != want:
            pytest.fail("A%d chain %r, reference %r" % (n, got, want))
        if e8.root_subsystem_type(e8.enumerate_roots(), "A%d" % n) != want:
            pytest.fail("root_subsystem_type A%d differs from the reference" % n)
    for roots in fixed_root_sets()[1:]:
        small = ref_normalized_mod_sign(roots)
        for n in (1, 2, 3, 4):
            if e8._find_a_chain(small, n) != ref_find_a_chain(small, n):
                pytest.fail("A%d search differs on %d fixed roots" % (n, len(roots)))


def test_chain_search_with_avoid_matches_inner_route():
    pool = ref_normalized_mod_sign(e8.enumerate_roots())
    rng = random.Random(496)
    for _ in range(20):
        avoid = tuple(rng.sample(pool, rng.randint(1, 3)))
        for n in (1, 2, 3):
            if e8._find_a_chain(pool, n, avoid=avoid) != ref_find_a_chain(pool, n, avoid=avoid):
                pytest.fail("A%d search avoiding %r differs" % (n, avoid))


def test_pair_and_quadruple_match_inner_route():
    if e8.orthogonal_a4_pair() != ref_a4_pair():
        pytest.fail("A4 pair %r, reference %r" % (e8.orthogonal_a4_pair(), ref_a4_pair()))
    if e8.orthogonal_a2_quadruple() != ref_a2_quadruple():
        pytest.fail("A2 quadruple %r, reference %r"
                    % (e8.orthogonal_a2_quadruple(), ref_a2_quadruple()))
    if e8.orthogonal_a4_pair() is not e8.orthogonal_a4_pair():
        pytest.fail("the A4 pair is not memoized")
    if e8.orthogonal_a2_quadruple() is not e8.orthogonal_a2_quadruple():
        pytest.fail("the A2 quadruple is not memoized")


def test_first_call_searches_match_the_avoid_route():
    e8.orthogonal_a4_pair.cache_clear()
    e8.orthogonal_a2_quadruple.cache_clear()
    e8.enumerate_roots.cache_clear()
    roots = e8.enumerate_roots()
    if list(roots) != sorted(roots) or len(set(roots)) != 240:
        pytest.fail("the roots are not 240 in LatticeVec order")
    if e8.orthogonal_a4_pair() != avoid_a4_pair():
        pytest.fail("A4 pair %r, avoid route %r" % (e8.orthogonal_a4_pair(), avoid_a4_pair()))
    if e8.orthogonal_a2_quadruple() != avoid_a2_quadruple():
        pytest.fail("A2 quadruple %r, avoid route %r"
                    % (e8.orthogonal_a2_quadruple(), avoid_a2_quadruple()))


def test_basis_inverse_matches_gauss_jordan():
    got, want = e8._basis_inverse(), ref_basis_inverse()
    if got != want:
        pytest.fail("basis inverse %r, sympy inverse %r" % (got, want))
    s, b = got
    fs = e8.standard_basis()
    for i, row in enumerate(b):
        for j, f in enumerate(fs):
            if sum(Fraction(x, s) * h for x, h in zip(row, f.halves())) != (i == j):
                pytest.fail("B / s is not the inverse of F at (%d, %d)" % (i, j))


def test_span_check_is_the_cartan_matrix():
    if e8.cartan_matrix() != e8.expected_cartan():
        pytest.fail("the Gram matrix of f1..f8 is not the E8 Cartan matrix")
    f = [[Fraction(x, 2) for x in fv.d] for fv in e8.standard_basis()]
    if abs(det(f)) != 1 or det(e8.expected_cartan()) != 1:
        pytest.fail("det F or det C is not +-1")
