"""The one reference of each linalg kernel, kept here and nowhere in the
package:

* the Smith form: reference_smith_normal_form, an elimination that carries
  both unimodular transforms, for the elementary divisors, the transforms
  (in test_reps_oracles.py) and, through the Smith forms of A and [A | b],
  integer solvability;
* the characteristic polynomial: list_charpoly, Faddeev-LeVerrier on lists
  of integer rows, for the Newton charpoly on packed powers, for the charpoly
  of H elements and (in test_cold_routes.py) for the one decompose_matrix
  takes from power traces;
* rational solving and rank: sympy;
* packed powers: dense integer powers."""

import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from sympy import Matrix, Rational

from k3census import e8, linalg
from k3census.errors import CheckFailure
from conftest import seeded_elements


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


def test_elementary_divisors_match_the_reference_on_every_shape():
    rng = random.Random(1902)
    kinds = {"rank deficient": 0, "zero line": 0}
    for rows in range(1, 10):
        for cols in range(1, 10):
            for _ in range(4):
                a = seeded_matrix(rng, rows, cols)
                got = linalg.elementary_divisors(a)
                assert got == reference_elementary_divisors(a), a
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
                want = reference_elementary_divisors(a) \
                    == reference_elementary_divisors([row + [bv] for row, bv in zip(a, b)])
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


def lemma45_witnesses(witness_inputs):
    """The integer matrices of the 7 Lemma 4.5 witnesses."""
    out = [m for _, _, m in witness_inputs.witnesses if m is not None]
    if len(out) != 7:
        pytest.fail("%d Lemma 4.5 witnesses, not 7" % len(out))
    return out


def dense_powers(a, k):
    """A^1, ..., A^k by the schoolbook product on lists of rows."""
    n, out = len(a), [a]
    while len(out) < k:
        out.append([[sum(a[i][l] * out[-1][l][j] for l in range(n)) for j in range(n)]
                    for i in range(n)])
    return out


def test_packed_powers_match_dense_powers(witness_inputs):
    """The rows and traces packed_powers yields, unpacked, against dense
    integer powers: on seeded square matrices of every kind and size up to
    10, up to the 9th power, and on the 7 Lemma 4.5 witnesses up to the
    8th."""
    rng = random.Random(2501)
    cases = [(m, 8) for m in lemma45_witnesses(witness_inputs)]
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


def test_packed_charpoly_matches_the_list_version(witness_inputs):
    """On the 7 Lemma 4.5 witnesses, on seeded square matrices of every
    kind and size up to 12, on matrices with entries up to 10^6, on the
    empty matrix, and on the f-basis matrices of 200 elements of seed 31415,
    whose charpoly is also the element's own; every coefficient is an
    int."""
    rng = random.Random(2301)
    cases = lemma45_witnesses(witness_inputs)
    cases += [seeded_matrix(rng, n, n) for n in range(1, 13) for _ in range(12)]
    cases += [[[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
              for n in (1, 2, 5, 8)]
    cases.append([])
    elements = seeded_elements(200, seed=31415)
    cases += [e8.matrix_in_f_basis(g.matrix_e()) for g in elements]
    own = [None] * (len(cases) - len(elements)) + [list(g.charpoly()) for g in elements]
    for a, charpoly in zip(cases, own):
        got, want = linalg.charpoly(a), list_charpoly(a)
        if got != want or charpoly not in (None, want):
            pytest.fail("%r: packed %r, list version %r, element %r" % (a, got, want, charpoly))
        if any(type(c) is not int for c in got):
            pytest.fail("%r: packed charpoly %r is not all int" % (a, got))


def test_charpoly_rejects_non_integer_matrices():
    with pytest.raises(ValueError):
        linalg.charpoly([[Fraction(1, 2)]])


def test_charpoly_lane_width_below_the_bound_raises(monkeypatch):
    """Lanes narrower than the certified bound are refused before any
    packed power is formed, in charpoly's name."""
    monkeypatch.setattr(linalg, "_lane_bits", lambda bound: 3)
    with pytest.raises(CheckFailure, match="linalg.charpoly: lanes of 3 bits cannot hold"):
        linalg.charpoly([[5]])
    with pytest.raises(CheckFailure, match="linalg.charpoly: lanes of 3 bits cannot hold"):
        linalg.charpoly([[-5]])
