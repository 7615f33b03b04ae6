import random
from fractions import Fraction

import pytest

from k3census import e8
from k3census.e8 import LatticeVec, enumerate_roots, inner, is_root, reflect
from test_linalg import det


def doubled(*true_coords):
    return tuple(2 * c for c in true_coords)


def test_root_count_and_census():
    roots = enumerate_roots()
    assert len(roots) == 240
    integral = [r for r in roots if all(x % 2 == 0 for x in r.d)]
    halves = [r for r in roots if all(x % 2 for x in r.d)]
    assert len(integral) == 112 and len(halves) == 128


def test_membership():
    assert not is_root((2, 0, 0, 0, 0, 0, 0, 0))  # e1 has norm 1
    assert is_root((1, 1, 1, 1, 1, 1, 1, 1))      # all-plus half vector
    assert not is_root((1, -1, 1, 1, 1, 1, 1, 1))  # odd number of minus signs


def test_lattice_invariants_enforced():
    with pytest.raises(ValueError):
        LatticeVec((2, 0, 0, 0, 0, 0, 0, 0))  # e1 is not in the lattice
    with pytest.raises(ValueError):
        LatticeVec((1, 1, 1, 1, 1, 1, 1, 2))  # mixed parity


def test_inner_examples():
    f = e8.standard_basis()
    e1me2 = LatticeVec(doubled(1, -1, 0, 0, 0, 0, 0, 0))
    assert inner(e1me2, e1me2) == 2
    assert inner(f[7], f[7]) == 2
    assert inner(f[0], f[1]) == -1


def test_cartan_matrix_and_unimodularity():
    assert e8.cartan_matrix() == e8.expected_cartan()
    fs = e8.standard_basis()
    assert abs(det([[Fraction(x, 2) for x in v.d] for v in fs])) == 1


def test_figure_adjacency_abs_one():
    fs = e8.standard_basis()
    edges = {tuple(sorted(e)) for e in e8.DYNKIN_EDGES}
    for i in range(8):
        for j in range(i + 1, 8):
            val = abs(inner(fs[i], fs[j]))
            assert val == (1 if (i + 1, j + 1) in edges else 0)


def test_reflection_properties():
    fs = e8.standard_basis()
    r = fs[0]
    assert reflect(r, r) == -r
    assert reflect(fs[0], fs[1]) == fs[1] + fs[0]
    # fixes the orthogonal hyperplane
    assert reflect(fs[0], fs[3]) == fs[3]
    with pytest.raises(ValueError):
        reflect(LatticeVec(doubled(1, 1, 1, 1, 0, 0, 0, 0)), fs[0])


def test_roots_closed_under_reflection():
    roots = enumerate_roots()
    rs = e8.root_set()
    rng = random.Random(11)
    for r in rng.sample(list(roots), 40):
        for x in roots:
            assert reflect(r, x).d in rs


def test_reflection_preserves_inner_products():
    rng = random.Random(5)
    fs = e8.standard_basis()
    roots = enumerate_roots()
    for _ in range(30):
        r = rng.choice(roots)
        u = _random_vec(rng, fs)
        v = _random_vec(rng, fs)
        assert inner(reflect(r, u), reflect(r, v)) == inner(u, v)


def _random_vec(rng, fs):
    out = LatticeVec((0,) * 8)
    for f in fs:
        out = out + f.scaled(rng.randint(-3, 3))
    return out


A4_WITNESS = (
    LatticeVec(doubled(0, 0, 0, 0, 0, 1, -1, 0)),
    LatticeVec((-1, -1, -1, -1, -1, -1, 1, 1)),
    LatticeVec((1, 1, 1, 1, 1, -1, -1, 1)),
    LatticeVec(doubled(0, 0, 0, 0, 0, 1, 1, 0)),
)


def test_subsystem_detection():
    assert e8.root_subsystem_type(A4_WITNESS, "A4") is not None
    fs = e8.standard_basis()
    assert e8.root_subsystem_type([fs[0]], "A1") == (fs[0],)
    assert e8.root_subsystem_type([fs[0]], "A2") is None
    assert e8.root_subsystem_type(A4_WITNESS, "D4") is None
    # a D4 in the full system: center f4 with orthogonal neighbours
    assert e8.root_subsystem_type(enumerate_roots(), "D4") is not None
    assert e8.root_subsystem_type(enumerate_roots(), "A2+A2") is not None
    with pytest.raises(ValueError):
        e8.root_subsystem_type(A4_WITNESS, "B2")


def test_witness_gram_is_a4_chain():
    g = [[inner(u, v) for v in A4_WITNESS] for u in A4_WITNESS]
    assert [g[i][i] for i in range(4)] == [2, 2, 2, 2]
    for i in range(3):
        assert g[i][i + 1] == -1
    assert g[0][2] == g[0][3] == g[1][3] == 0


def from_halves(halves) -> LatticeVec:
    """The vector with true coordinates halves (ints or Fractions)."""
    d = []
    for h in halves:
        v = Fraction(h) * 2
        if v.denominator != 1:
            raise ValueError("coordinate %s is not half-integral" % h)
        d.append(int(v))
    return LatticeVec(tuple(d))


def apply_matrix(m, x: LatticeVec) -> LatticeVec:
    """x under the matrix m on e-coordinates (entries Fraction or int)."""
    halves = x.halves()
    return from_halves([sum(Fraction(a) * b for a, b in zip(row, halves)) for row in m])


def test_matrix_round_trip():
    fs = e8.standard_basis()
    m = e8.reflection_matrix(fs[0])
    mf = e8.matrix_in_f_basis(m)
    assert all(isinstance(x, int) for row in mf for x in row)
    # the f-basis matrix acts on f-coordinates consistently
    for v in fs:
        img = apply_matrix(m, v)
        coords = e8.f_coordinates(v)
        want = e8.f_coordinates(img)
        got = tuple(sum(mf[i][j] * coords[j] for j in range(8)) for i in range(8))
        assert got == want
