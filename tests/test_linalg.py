import random
from fractions import Fraction

from k3census import linalg


def identity(n):
    """The n x n identity over Fraction."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def det(a):
    """Determinant by Fraction Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in a]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def rand_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_solve():
    a = [[1, 2], [3, 4]]
    x = linalg.solve(a, [5, 11])
    assert x == [Fraction(1), Fraction(2)]
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None  # inconsistent
    # underdetermined: any x with A x = b will do
    under = linalg.solve([[1, 1, 1]], [3])
    assert sum(under) == 3
    # rational entries are scaled row by row to an integer system
    half = [[Fraction(1, 2), Fraction(1, 3)], [1, -1]]
    assert linalg.solve(half, [Fraction(5, 6), 0]) == [1, 1]
    assert linalg.solve(half, [Fraction(1, 7), 0]) == [Fraction(6, 35)] * 2


def test_det_and_rank():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert len(linalg.elementary_divisors([[1, 2], [2, 4]])) == 1


def test_charpoly_companion():
    # companion matrix of x^3 - 2x - 5
    c = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert linalg.charpoly(c) == [Fraction(-5), Fraction(-2), Fraction(0), Fraction(1)]


def test_smith_normal_form_properties():
    rng = random.Random(60)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_int_matrix(rng, rows, cols)
        d, u, v = linalg.smith_normal_form(a)
        # u a v == d
        ua = [[sum(u[i][k] * a[k][j] for k in range(rows)) for j in range(cols)]
              for i in range(rows)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
               for i in range(rows)]
        assert uav == d
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        divs = linalg.elementary_divisors(a)
        for x, y in zip(divs, divs[1:]):
            assert y % x == 0
        # off-diagonal zero
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_integer_solve():
    a = [[2, 0], [0, 3]]
    assert linalg.integer_solve(a, [4, 9]) == [2, 3]
    assert linalg.integer_solve(a, [1, 0]) is None  # 2x = 1 has no integer root
    # underdetermined with a solution
    sol = linalg.integer_solve([[2, 3]], [1])
    assert sol is not None and 2 * sol[0] + 3 * sol[1] == 1
    # rationally solvable, but 2x + 4y is always even
    assert linalg.solve([[2, 4]], [1]) is not None
    assert linalg.integer_solve([[2, 4]], [1]) is None
