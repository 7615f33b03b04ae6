"""sympy as an independent reference for linalg: its Smith normal form for
the elementary divisors, its rank for consistency and uniqueness of rational
systems, and the Smith forms of A and [A | b] for integer solvability.  The
Newton charpoly on packed powers is pinned to a list-of-lists
Faddeev-LeVerrier kept here, and the packed powers to dense ones."""

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from sympy import Matrix, Rational, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from k3census import linalg, reps
from k3census.errors import CheckFailure


def sympy_divisors(a):
    d = sympy_snf(Matrix(a), domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]


def seeded_matrix(rng, rows, cols):
    """A random integer matrix of the given shape: full, of deficient rank
    (a product through a thinner middle), or with zero rows and columns."""
    kind = rng.choice(("full", "low rank", "zero lines"))
    if kind == "low rank":
        k = rng.randrange(min(rows, cols))
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        return [[sum(row[l] * right[l][j] for l in range(k)) for j in range(cols)]
                for row in left]
    a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero lines":
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in a:
                row[j] = 0
    return a


def test_elementary_divisors_match_sympy_on_every_shape():
    rng = random.Random(1902)
    kinds = {"rank deficient": 0, "zero line": 0}
    for rows in range(1, 10):
        for cols in range(1, 10):
            for _ in range(4):
                a = seeded_matrix(rng, rows, cols)
                got = linalg.elementary_divisors(a)
                assert got == sympy_divisors(a), a
                assert all(y % x == 0 for x, y in zip(got, got[1:]))
                kinds["rank deficient"] += len(got) < min(rows, cols)
                kinds["zero line"] += any(not any(r) for r in a) or any(not any(c) for c in zip(*a))
    assert min(kinds.values()) > 50, kinds


def test_elementary_divisors_of_known_forms():
    assert linalg.elementary_divisors([[0]]) == []
    assert linalg.elementary_divisors([[-7]]) == [7]
    assert linalg.elementary_divisors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert linalg.elementary_divisors([[0, 0, 0], [0, 0, 0]]) == []
    assert linalg.elementary_divisors([[0, -3, 0], [0, 6, 0]]) == [3]


def to_sympy(rows):
    return Matrix([[Rational(x.numerator, x.denominator) for x in row] for row in rows])


def seeded_system(rng, rows, cols):
    """A random system A x = b: A from seeded_matrix, scaled entrywise by
    random Fractions one time in three; b the image of a random rational
    vector (a consistent system) or a random rational vector (inconsistent
    unless A has full row rank)."""
    a = seeded_matrix(rng, rows, cols)
    if rng.random() < 1 / 3:
        a = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
    if rng.random() < 1 / 2:
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
        b = [sum(map(mul, row, x0)) for row in a]
    else:
        b = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2))) for _ in range(rows)]
    return a, b


def test_solve_matches_sympy_on_random_systems():
    rng = random.Random(1968)
    kinds = Counter()
    for rows in range(1, 7):
        for cols in range(1, 7):
            for _ in range(6):
                a, b = seeded_system(rng, rows, cols)
                sa, sb = to_sympy(a), to_sympy([[bv] for bv in b])
                rank = sa.rank()
                consistent = rank == sa.row_join(sb).rank()
                x = linalg.solve(a, b)
                assert (x is not None) == consistent, (a, b)
                kinds["fraction entries"] += any(isinstance(v, Fraction) for v in a[0])
                kinds["rank deficient"] += rank < min(rows, cols)
                if not consistent:
                    kinds["inconsistent"] += 1
                    continue
                assert [sum(map(mul, row, x)) for row in a] == b, (a, b, x)
                if rank < cols:
                    kinds["underdetermined"] += 1
                    continue
                kinds["unique"] += 1
                want, _ = sa.gauss_jordan_solve(sb)
                assert x == [Fraction(int(v.p), int(v.q)) for v in want], (a, b)
    assert min(kinds.values()) > 20 and len(kinds) == 5, kinds


def test_rank_is_the_number_of_elementary_divisors():
    rng = random.Random(2246)
    for rows in range(1, 9):
        for cols in range(1, 9):
            for _ in range(3):
                a = seeded_matrix(rng, rows, cols)
                assert len(linalg.elementary_divisors(a)) == Matrix(a).rank(), a
    assert len(linalg.elementary_divisors([[1, 2], [2, 4]])) == Matrix([[1, 2], [2, 4]]).rank() == 1
    # the kernel of [1 1 1] has dimension 3 - rank = 2
    assert 3 - len(linalg.elementary_divisors([[1, 1, 1]])) == len(Matrix([[1, 1, 1]]).nullspace()) == 2


def test_integer_solve_matches_smith_forms_of_a_and_a_b():
    rng = random.Random(2718)
    kinds = Counter()
    for rows in range(1, 7):
        for cols in range(1, 7):
            for _ in range(10):
                a = seeded_matrix(rng, rows, cols)
                kind = rng.choice(("image", "scaled column", "random"))
                if kind == "random":
                    b = [rng.randint(-9, 9) for _ in range(rows)]
                else:
                    x0 = [rng.randint(-5, 5) for _ in range(cols)]
                    b = [sum(map(mul, row, x0)) for row in a]
                if kind == "scaled column":
                    # x0 / k in that coordinate still solves it over Q
                    j, k = rng.randrange(cols), rng.choice((2, 3))
                    for row in a:
                        row[j] *= k
                want = sympy_divisors(a) == sympy_divisors([row + [bv] for row, bv in zip(a, b)])
                got = linalg.integer_solve(a, b)
                assert (got is not None) == want, (a, b)
                rational = linalg.solve(a, b) is not None
                if got is None:
                    kinds["rational only" if rational else "inconsistent"] += 1
                    continue
                kinds["integral"] += 1
                assert all(type(v) is int for v in got)
                assert [sum(map(mul, row, got)) for row in a] == b, (a, b, got)
    assert min(kinds.values()) > 20 and len(kinds) == 3, kinds


def list_charpoly(a):
    """Faddeev-LeVerrier on lists of integer rows: a second algorithm on a
    second representation beside linalg.charpoly, Newton's identities on
    packed powers."""
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mcols = list(zip(*m))
        m = [[sum(map(mul, row, col)) for col in mcols] for row in a]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:
            pytest.fail("trace not divisible by %d" % k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def lemma45_witnesses():
    """The integer matrices of the Lemma 4.5 witnesses, the census entries
    coxeter_witness has a recipe for."""
    out = [reps.coxeter_witness(p, (dec.r, dec.s, dec.t)) for p in (3, 5, 7)
           for dec in reps.lemma45_census(p)]
    return [m for m in out if m is not None]


def dense_powers(a, k):
    """A^1, ..., A^k by the schoolbook product on lists of rows."""
    n, out = len(a), [a]
    while len(out) < k:
        out.append([[sum(a[i][l] * out[-1][l][j] for l in range(n)) for j in range(n)]
                    for i in range(n)])
    return out


def test_packed_powers_match_dense_powers():
    """The rows and traces packed_powers yields, unpacked, against dense
    integer powers: on seeded square matrices of every kind and size up to
    10, up to the 9th power, and on the 7 Lemma 4.5 witnesses up to the
    8th."""
    rng = random.Random(2501)
    cases = [(m, 8) for m in lemma45_witnesses()]
    if len(cases) != 7:
        pytest.fail("%d Lemma 4.5 witnesses, not 7" % len(cases))
    cases += [(seeded_matrix(rng, n, n), rng.randint(1, 9)) for n in range(1, 11)
              for _ in range(8)]
    for a, k in cases:
        n = len(a)
        rho = max(1, max(sum(map(abs, row)) for row in a))
        bits = linalg.lane_width(rho ** k, "test")
        got = [([linalg.unpack(x, n, bits) for x in rows], trace)
               for rows, trace in linalg.packed_powers(a, k, bits)]
        want = [(p, sum(p[i][i] for i in range(n))) for p in dense_powers(a, k)]
        if got != want:
            pytest.fail("%r to the %d: packed %r, dense %r" % (a, k, got, want))


def test_packed_charpoly_matches_the_list_version():
    """On the 7 Lemma 4.5 witnesses, on seeded square matrices of every
    kind and size up to 12, on matrices with entries up to 10^6, and on the
    empty matrix."""
    rng = random.Random(2301)
    cases = lemma45_witnesses()
    if len(cases) != 7:
        pytest.fail("%d Lemma 4.5 witnesses, not 7" % len(cases))
    cases += [seeded_matrix(rng, n, n) for n in range(1, 13) for _ in range(12)]
    cases += [[[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
              for n in (1, 2, 5, 8)]
    cases.append([])
    for a in cases:
        got, want = linalg.charpoly(a), list_charpoly(a)
        if got != want:
            pytest.fail("%r: packed %r, list version %r" % (a, got, want))


def test_charpoly_lane_width_below_the_bound_raises(monkeypatch):
    """Lanes narrower than the certified bound are refused before any
    packed power is formed, in charpoly's name."""
    monkeypatch.setattr(linalg, "_lane_bits", lambda bound: 3)
    with pytest.raises(CheckFailure, match="linalg.charpoly: lanes of 3 bits cannot hold"):
        linalg.charpoly([[5]])
    with pytest.raises(CheckFailure, match="linalg.charpoly: lanes of 3 bits cannot hold"):
        linalg.charpoly([[-5]])
